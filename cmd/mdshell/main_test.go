package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"modeldata/internal/server"
)

// TestRequestsAbortOnContextCancel is the regression for the shell's
// context-free HTTP calls: client.Get/client.Post carried no context,
// so a hung server pinned the shell for the full five-minute client
// timeout and Ctrl-C could not abort an in-flight query. Both request
// paths must now unblock as soon as the context ends.
func TestRequestsAbortOnContextCancel(t *testing.T) {
	// The handler never responds until the client gives up, standing in
	// for a server stuck in a long Monte Carlo run.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server's background read is armed and
		// the client disconnect cancels r.Context(); otherwise this
		// handler outlives the test and srv.Close hangs.
		_, _ = io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	defer srv.Close()

	sh := &shell{
		addr:   srv.URL,
		client: srv.Client(),
		tenant: "default",
		iters:  1,
		out:    io.Discard,
	}

	for _, tc := range []struct {
		name string
		call func(context.Context) error
	}{
		{"get", func(ctx context.Context) error {
			return sh.get(ctx, "/healthz")
		}},
		{"post", func(ctx context.Context) error {
			return sh.runSQL(ctx, "SELECT AVG(x) FROM t", false)
		}},
	} {
		call := tc.call
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- call(ctx) }()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("request against a hung server returned nil error")
				}
				if !strings.Contains(err.Error(), "context deadline exceeded") {
					t.Fatalf("want context deadline error, got: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("request did not abort when its context ended")
			}
		})
	}
}

// TestReplLongStatement is the regression for the shell's default
// bufio.Scanner: a pasted statement over 64 KiB ended the session
// silently with status 0. A 100 KiB statement must reach the server
// and the statement after it must still run; a line over the 1 MiB cap
// must surface as an error for main to exit non-zero on.
func TestReplLongStatement(t *testing.T) {
	var mu sync.Mutex
	var got []int // length of each statement the server received
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req server.SQLRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		got = append(got, len(req.SQL))
		mu.Unlock()
		_ = json.NewEncoder(w).Encode(server.SQLResponse{})
	}))
	defer srv.Close()

	// 32 + 10·10240 bytes: just over 100 KiB, past the 64 KiB default.
	long := "SELECT AVG(x) FROM t WHERE x > 0" + strings.Repeat(" AND x > 0", 10<<10)
	sh := &shell{addr: srv.URL, client: srv.Client(), tenant: "default", iters: 1, out: io.Discard}

	sh.in = strings.NewReader(strings.Repeat("x", maxStatement+1) + "\n")
	if err := sh.repl(context.Background()); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("over-long line: err = %v, want bufio.ErrTooLong", err)
	}

	sh.in = strings.NewReader(long + "\nSELECT AVG(x) FROM t\n")
	if err := sh.repl(context.Background()); err != nil {
		t.Fatalf("repl: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || got[0] != len(long) {
		t.Fatalf("server received statements of length %v, want [%d 20]", got, len(long))
	}
}
