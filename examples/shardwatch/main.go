// Command shardwatch demonstrates (and smoke-tests) a shard-aware
// embedded client living through an online rebalance: it bootstraps the
// SDK from a routing tier, waits until the router publishes a target map
// version (as happens when a rebalance commits), and then decides each
// -subjects entry through the same SDK. The SDK follows no shard map: a
// subject its home replica holds is mediated locally, and one the
// rebalance moved away goes to the router, which routes it by the map it
// publishes.
//
//	grbacd -addr :8120 -route 'a=http://localhost:8125,b=http://localhost:8126' -data-dir /tmp/router &
//	go run ./examples/shardwatch -router http://127.0.0.1:8120 -want-version 2 -subjects alice,bob &
//	grbacctl -server http://127.0.0.1:8120 rebalance add -id c -addr http://localhost:8127
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"strings"
	"time"

	grbac "github.com/aware-home/grbac"
	"github.com/aware-home/grbac/sdk"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("shardwatch: ")
	router := flag.String("router", "http://127.0.0.1:8120", "routing-tier base URL")
	wantVersion := flag.Uint64("want-version", 0, "wait until the router publishes a shard map of this version (0 = do not wait)")
	timeout := flag.Duration("timeout", time.Minute, "give up waiting for -want-version after this long")
	subjects := flag.String("subjects", "", "comma-separated subjects to decide after the wait (tv/use/weekday-free-time against the stock policy)")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	c, err := sdk.New(ctx, *router, sdk.WithShardRouting(""))
	cancel()
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	version, err := mapVersion(*router)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shardwatch: SDK bootstrapped under router map v%d\n", version)

	for deadline := time.Now().Add(*timeout); version < *wantVersion; time.Sleep(50 * time.Millisecond) {
		if time.Now().After(deadline) {
			log.Fatalf("router map still v%d after %v, want v%d", version, *timeout, *wantVersion)
		}
		if v, err := mapVersion(*router); err == nil {
			version = v
		}
	}
	if *wantVersion > 0 {
		fmt.Printf("shardwatch: router published map v%d\n", version)
	}

	if *subjects == "" {
		return
	}
	subs := strings.Split(*subjects, ",")
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	bySource := map[sdk.Source]int{}
	for _, sub := range subs {
		d, err := c.Decide(dctx, grbac.Request{
			Subject: grbac.SubjectID(sub), Object: "tv", Transaction: "use",
			Environment: []grbac.RoleID{"weekday-free-time"},
		})
		if err != nil || !d.Allowed {
			log.Fatalf("decide %s: allowed=%v source=%s err=%v", sub, d.Allowed, d.Source, err)
		}
		bySource[d.Source]++
	}
	fmt.Printf("shardwatch: %d subjects decidable through the SDK under map v%d (%d local, %d remote)\n",
		len(subs), version, bySource[sdk.SourceLocal], bySource[sdk.SourceRemote])
}

// mapVersion reads the version of the router's published shard map.
func mapVersion(router string) (uint64, error) {
	resp, err := http.Get(router + "/v1/shard/map")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET %s/v1/shard/map: %s", router, resp.Status)
	}
	var m struct {
		Version uint64 `json:"version"`
	}
	err = json.NewDecoder(resp.Body).Decode(&m)
	return m.Version, err
}
