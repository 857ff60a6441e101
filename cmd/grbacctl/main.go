// Command grbacctl is the CLI client for a grbacd policy decision point.
//
// Usage:
//
//	grbacctl -server http://localhost:8125 check -subject alice -object tv \
//	    -transaction use -env weekday-free-time
//	grbacctl decide -subject alice -object tv -transaction use
//	grbacctl state
//	grbacctl health
//	grbacctl stats
//	grbacctl top
//	grbacctl audit -correlation-id 4f3c2a1b9e8d7c6a
//	grbacctl -server http://follower:8126 replication
//	grbacctl -server http://router:8120 rebalance add -id s2 -addr http://localhost:8127 -wait 2m
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"github.com/aware-home/grbac/internal/pdp"
	"github.com/aware-home/grbac/internal/replica"
	"github.com/aware-home/grbac/internal/shard"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("grbacctl: ")
	server := flag.String("server", "http://localhost:8125", "PDP base URL")
	timeout := flag.Duration("timeout", 5*time.Second, "request timeout")
	flag.Parse()

	if flag.NArg() < 1 {
		log.Fatal("usage: grbacctl [flags] check|decide|state|health|shards|rebalance|bundle|stats|top|replication|audit|who-can|what-can [subcommand flags]")
	}
	client := pdp.NewClient(*server, nil)
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	switch cmd := flag.Arg(0); cmd {
	case "check", "decide":
		req := parseDecideFlags(flag.Args()[1:])
		if cmd == "check" {
			ok, err := client.Check(ctx, req)
			if err != nil {
				log.Fatal(err)
			}
			if ok {
				fmt.Println("permit")
				return
			}
			fmt.Println("deny")
			os.Exit(1)
		}
		d, err := client.Decide(ctx, req)
		if err != nil {
			log.Fatal(err)
		}
		printJSON(d)
	case "who-can":
		fs := flag.NewFlagSet("who-can", flag.ExitOnError)
		tx := fs.String("transaction", "", "transaction ID")
		object := fs.String("object", "", "target object")
		env := fs.String("env", "", "comma-separated active environment roles")
		if err := fs.Parse(flag.Args()[1:]); err != nil {
			log.Fatal(err)
		}
		subjects, err := client.WhoCan(ctx, *tx, *object, splitList(*env))
		if err != nil {
			log.Fatal(err)
		}
		for _, s := range subjects {
			fmt.Println(s)
		}
	case "what-can":
		fs := flag.NewFlagSet("what-can", flag.ExitOnError)
		subject := fs.String("subject", "", "subject ID")
		env := fs.String("env", "", "comma-separated active environment roles")
		if err := fs.Parse(flag.Args()[1:]); err != nil {
			log.Fatal(err)
		}
		ents, err := client.WhatCan(ctx, *subject, splitList(*env))
		if err != nil {
			log.Fatal(err)
		}
		for _, e := range ents {
			fmt.Printf("%s %s\n", e.Transaction, e.Object)
		}
	case "audit":
		fs := flag.NewFlagSet("audit", flag.ExitOnError)
		subject := fs.String("subject", "", "filter by subject")
		object := fs.String("object", "", "filter by object")
		tx := fs.String("transaction", "", "filter by transaction")
		corr := fs.String("correlation-id", "", "the records of one request, by its X-Correlation-ID")
		denies := fs.Bool("denies", false, "denied requests only")
		limit := fs.Int("limit", 50, "most recent N records")
		if err := fs.Parse(flag.Args()[1:]); err != nil {
			log.Fatal(err)
		}
		records, err := client.Audit(ctx, pdp.AuditQuery{
			Subject: *subject, Object: *object, Transaction: *tx, CorrelationID: *corr,
			DeniesOnly: *denies, Limit: *limit,
		})
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range records {
			fmt.Println(r)
		}
	case "state":
		st, err := client.State(ctx)
		if err != nil {
			log.Fatal(err)
		}
		printJSON(st)
	case "stats":
		// Full statsz: cache counters plus the server's admission and
		// panic-recovery gauges (and replication lag on a follower).
		st, err := client.Statsz(ctx)
		if err != nil {
			log.Fatal(err)
		}
		printJSON(st)
	case "top":
		// Scrape GET /metrics and render the operator summary.
		samples, err := client.Metrics(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(renderTop(samples))
	case "replication":
		st, err := client.Statsz(ctx)
		if err != nil {
			log.Fatal(err)
		}
		if st.Replication == nil {
			log.Fatal("server is not a follower (no replication section in /v1/statsz)")
		}
		printReplication(*st.Replication)
		if st.Replication.Stale {
			os.Exit(1)
		}
	case "health":
		if client.Healthy(ctx) {
			fmt.Println("ok")
			return
		}
		fmt.Println("unhealthy")
		os.Exit(1)
	case "shards":
		// Ask the routing tier for its shard map, then probe each shard.
		var w shard.Wire
		if err := client.Call(ctx, "GET", pdp.ShardMapPath, nil, &w); err != nil {
			log.Fatalf("%v (is %s a grbacd -route node?)", err, *server)
		}
		fmt.Printf("shard map v%d (%d shards, %d vnodes)\n", w.Version, len(w.Shards), w.VNodes)
		exit := 0
		for _, s := range w.Shards {
			state := "ok"
			if !pdp.NewClient(s.Addr, nil).Healthy(ctx) {
				state = "UNREACHABLE"
				exit = 1
			}
			fmt.Printf("  %-12s %-32s %s\n", s.ID, s.Addr, state)
		}
		os.Exit(exit)
	case "bundle":
		runBundle(ctx, client, flag.Args()[1:])
	case "rebalance":
		runRebalance(ctx, client, flag.Args()[1:])
	default:
		log.Fatalf("unknown command %q", cmd)
	}
}

func parseDecideFlags(args []string) pdp.DecideRequest {
	fs := flag.NewFlagSet("decide", flag.ExitOnError)
	subject := fs.String("subject", "", "requesting subject")
	object := fs.String("object", "", "target object")
	tx := fs.String("transaction", "", "transaction ID")
	env := fs.String("env", "", "comma-separated active environment roles (empty = server environment)")
	creds := fs.String("credentials", "", "comma-separated credentials as kind:name:confidence, e.g. role:child:0.98,subject:alice:0.75")
	if err := fs.Parse(args); err != nil {
		log.Fatal(err)
	}
	req := pdp.DecideRequest{Subject: *subject, Object: *object, Transaction: *tx}
	if *env != "" {
		req.Environment = strings.Split(*env, ",")
	}
	if *creds != "" {
		for _, spec := range strings.Split(*creds, ",") {
			parts := strings.Split(spec, ":")
			if len(parts) != 3 {
				log.Fatalf("bad credential %q (want kind:name:confidence)", spec)
			}
			var conf float64
			if _, err := fmt.Sscanf(parts[2], "%g", &conf); err != nil {
				log.Fatalf("bad confidence in %q", spec)
			}
			c := pdp.Credential{Confidence: conf, Source: "grbacctl"}
			switch parts[0] {
			case "subject":
				c.Subject = parts[1]
			case "role":
				c.Role = parts[1]
			default:
				log.Fatalf("bad credential kind %q (want subject or role)", parts[0])
			}
			req.Credentials = append(req.Credentials, c)
		}
	}
	return req
}

// printReplication renders follower replication stats as key: value
// lines, one fact per line, so shell scripts can grep for e.g. "lag: 0".
func printReplication(st replica.Stats) {
	fmt.Printf("primary: %s\n", st.PrimaryURL)
	fmt.Printf("epoch: %s\n", st.Epoch)
	fmt.Printf("primary_generation: %d\n", st.PrimaryGeneration)
	fmt.Printf("applied_generation: %d\n", st.AppliedGeneration)
	fmt.Printf("lag: %d\n", st.Lag)
	fmt.Printf("syncs: %d\n", st.Syncs)
	fmt.Printf("errors: %d\n", st.Errors)
	fmt.Printf("last_sync_age_seconds: %.3f\n", st.LastSyncAgeSeconds)
	fmt.Printf("last_contact_age_seconds: %.3f\n", st.LastContactAgeSeconds)
	fmt.Printf("max_staleness_seconds: %.3f\n", st.MaxStalenessSeconds)
	fmt.Printf("stale: %v\n", st.Stale)
}

func splitList(raw string) []string {
	if raw == "" {
		return nil
	}
	return strings.Split(raw, ",")
}

func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Fatal(err)
	}
}
