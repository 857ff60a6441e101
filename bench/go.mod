module github.com/aware-home/grbac/bench

go 1.22

require github.com/aware-home/grbac v0.0.0

replace github.com/aware-home/grbac => ../
