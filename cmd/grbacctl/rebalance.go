package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"github.com/aware-home/grbac/internal/pdp"
	"github.com/aware-home/grbac/internal/shard"
)

// runRebalance drives the routing tier's online rebalance API:
//
//	grbacctl rebalance add -id s2 -addr http://localhost:8127 [-wait 2m]
//	grbacctl rebalance remove -id s1 [-wait 2m]
//	grbacctl rebalance status
//
// add/remove POST the action (the router answers 202 and migrates in
// the background); -wait polls status until the run finishes. status
// exits non-zero when the last run failed.
func runRebalance(ctx context.Context, client *pdp.Client, args []string) {
	if len(args) < 1 {
		log.Fatal("usage: grbacctl rebalance add|remove|status [flags]")
	}
	switch sub := args[0]; sub {
	case "status":
		st := fetchRebalanceStatus(ctx, client)
		printJSON(st)
		if st.Error != "" {
			os.Exit(1)
		}
	case "add", "remove":
		fs := flag.NewFlagSet("rebalance "+sub, flag.ExitOnError)
		id := fs.String("id", "", "shard ID")
		addr := fs.String("addr", "", "shard base URL (add only)")
		wait := fs.Duration("wait", 0, "poll until the rebalance finishes (0 = return once accepted)")
		if err := fs.Parse(args[1:]); err != nil {
			log.Fatal(err)
		}
		var st shard.Status
		req := pdp.RebalanceRequest{Action: sub, ID: *id, Addr: *addr}
		if err := client.Call(ctx, http.MethodPost, pdp.ShardRebalancePath, req, &st); err != nil {
			log.Fatal(rebalanceError(err))
		}
		fmt.Printf("rebalance %s %s accepted (map v%d -> v%d)\n", sub, *id, st.FromVersion, st.ToVersion)
		if *wait > 0 {
			waitRebalance(client, *wait)
		}
	default:
		log.Fatalf("unknown rebalance subcommand %q (want add, remove, or status)", sub)
	}
}

// waitRebalance polls the status endpoint until the run finishes or the
// wait budget runs out, then prints the final status and exits non-zero
// on failure or timeout.
func waitRebalance(client *pdp.Client, budget time.Duration) {
	deadline := time.Now().Add(budget)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		st := fetchRebalanceStatus(ctx, client)
		cancel()
		if !st.Active {
			printJSON(st)
			if st.Phase == "failed" || st.Error != "" {
				os.Exit(1)
			}
			return
		}
		if time.Now().After(deadline) {
			printJSON(st)
			log.Fatalf("rebalance still running after %v (moved %d/%d)", budget, st.Moved, st.TotalMoves)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

func fetchRebalanceStatus(ctx context.Context, client *pdp.Client) shard.Status {
	var st shard.Status
	if err := client.Call(ctx, http.MethodGet, pdp.ShardRebalanceStatusPath, nil, &st); err != nil {
		log.Fatal(rebalanceError(err))
	}
	return st
}

// rebalanceError describes a failed rebalance call, naming what the node
// needs when it may not serve the rebalance API at all; a refusal by a
// node that serves it (a shard not ready, a run already active) stands
// alone.
func rebalanceError(err error) string {
	var re *pdp.RemoteError
	if errors.As(err, &re) && re.Status != http.StatusNotFound && re.Status != http.StatusMethodNotAllowed {
		return err.Error()
	}
	return err.Error() + " (rebalance needs a grbacd -route node started with -data-dir)"
}
