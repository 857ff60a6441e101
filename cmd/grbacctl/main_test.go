package main

import (
	"errors"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"github.com/aware-home/grbac/internal/pdp"
)

func TestParseDecideFlags(t *testing.T) {
	req := parseDecideFlags([]string{
		"-subject", "alice",
		"-object", "tv",
		"-transaction", "use",
		"-env", "weekday-free-time,free-time",
		"-credentials", "subject:alice:0.75,role:child:0.98",
	})
	want := pdp.DecideRequest{
		Subject:     "alice",
		Object:      "tv",
		Transaction: "use",
		Environment: []string{"weekday-free-time", "free-time"},
		Credentials: []pdp.Credential{
			{Subject: "alice", Confidence: 0.75, Source: "grbacctl"},
			{Role: "child", Confidence: 0.98, Source: "grbacctl"},
		},
	}
	if !reflect.DeepEqual(req, want) {
		t.Fatalf("parsed = %+v\nwant   %+v", req, want)
	}
}

func TestParseDecideFlagsMinimal(t *testing.T) {
	req := parseDecideFlags([]string{"-subject", "a", "-object", "o", "-transaction", "t"})
	if req.Environment != nil {
		t.Fatalf("environment should be nil (server-evaluated), got %v", req.Environment)
	}
	if req.Credentials != nil {
		t.Fatalf("credentials should be nil, got %v", req.Credentials)
	}
}

// TestRebalanceError pins when a failed rebalance call carries the hint
// that the node must be a rebalance-capable router: not for a refusal by
// one that is.
func TestRebalanceError(t *testing.T) {
	const hint = "rebalance needs a grbacd -route node"
	for _, tc := range []struct {
		err  error
		hint bool
	}{
		{&pdp.RemoteError{Status: http.StatusNotFound}, true},
		{&pdp.RemoteError{Status: http.StatusMethodNotAllowed}, true},
		{errors.New("dial tcp: connection refused"), true},
		{&pdp.RemoteError{Status: http.StatusBadGateway, Message: "shard: not ready for a rebalance"}, false},
		{&pdp.RemoteError{Status: http.StatusConflict, Message: "shard: a rebalance is already running"}, false},
	} {
		if got := strings.Contains(rebalanceError(tc.err), hint); got != tc.hint {
			t.Errorf("rebalanceError(%v) hints = %v, want %v", tc.err, got, tc.hint)
		}
	}
}
