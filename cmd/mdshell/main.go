// Command mdshell is a line-oriented client for mcdbserver: type a
// scalar SELECT and it runs as a Monte Carlo query against the server,
// printing the sample-distribution summary. Backslash commands cover
// the rest of the service surface.
//
// Usage:
//
//	mdshell [-addr http://localhost:8080] [-tenant default]
//	        [-iters 200] [-seed 1] [-e "one statement"]
//
// Commands:
//
//	SELECT ...            run the statement once per Monte Carlo iteration
//	\explain SELECT ...   show the cost-based plan without executing
//	\set KEY VALUE        set iters, seed, workers, or tenant
//	\metrics              scrape the server's /metrics snapshot
//	\health               check /healthz
//	\q                    quit
//
// With -e the single statement runs non-interactively (exit status 1 on
// any error), which is how the CI smoke job drives it.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"modeldata/internal/server"
)

// shell holds the client state one session mutates with \set.
type shell struct {
	addr    string
	client  *http.Client
	tenant  string
	iters   int
	seed    uint64
	workers int
	in      io.Reader // repl reads statements from here, one per line
	out     io.Writer
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mdshell: ")
	addr := flag.String("addr", "http://localhost:8080", "mcdbserver base URL")
	tenant := flag.String("tenant", "default", "tenant namespace")
	iters := flag.Int("iters", 200, "Monte Carlo iterations per query")
	seed := flag.Uint64("seed", 1, "request seed (namespaced per tenant by the server)")
	workers := flag.Int("workers", 0, "per-query worker budget (0 = server maximum)")
	oneShot := flag.String("e", "", "run one statement and exit")
	flag.Parse()

	sh := &shell{
		addr:    strings.TrimRight(*addr, "/"),
		client:  &http.Client{Timeout: 5 * time.Minute},
		tenant:  *tenant,
		iters:   *iters,
		seed:    *seed,
		workers: *workers,
		in:      os.Stdin,
		out:     os.Stdout,
	}
	// Every request the shell sends carries this context, so Ctrl-C
	// aborts an in-flight query instead of hanging until the client
	// timeout. The server cancels the corresponding Monte Carlo run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *oneShot != "" {
		if err := sh.dispatch(ctx, *oneShot); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := sh.repl(ctx); err != nil {
		log.Fatal(err)
	}
}

// maxStatement bounds one input line, as examples/sqlcli does; a longer
// line ends the session with bufio.ErrTooLong.
const maxStatement = 1 << 20

// repl runs statements from sh.in until \q or end of input, and
// returns the error that cut the input short, if one did.
func (sh *shell) repl(ctx context.Context) error {
	fmt.Fprintf(sh.out, "connected to %s (tenant %q, iters %d, seed %d); \\q quits\n",
		sh.addr, sh.tenant, sh.iters, sh.seed)
	sc := bufio.NewScanner(sh.in)
	sc.Buffer(make([]byte, maxStatement), maxStatement)
	for {
		fmt.Fprint(sh.out, "mcdb> ")
		if !sc.Scan() {
			fmt.Fprintln(sh.out)
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == `\q` || line == `\quit` {
			return nil
		}
		if err := sh.dispatch(ctx, line); err != nil {
			fmt.Fprintf(sh.out, "error: %v\n", err)
		}
	}
}

// dispatch executes one input line.
func (sh *shell) dispatch(ctx context.Context, line string) error {
	switch {
	case strings.HasPrefix(line, `\explain `):
		return sh.runSQL(ctx, strings.TrimSpace(strings.TrimPrefix(line, `\explain `)), true)
	case strings.HasPrefix(line, `\set `):
		return sh.set(strings.Fields(strings.TrimPrefix(line, `\set `)))
	case line == `\metrics`:
		return sh.get(ctx, "/metrics")
	case line == `\health`:
		return sh.get(ctx, "/healthz")
	case strings.HasPrefix(line, `\`):
		return fmt.Errorf("unknown command %q", line)
	default:
		return sh.runSQL(ctx, line, false)
	}
}

func (sh *shell) set(kv []string) error {
	if len(kv) != 2 {
		return fmt.Errorf(`usage: \set iters|seed|workers|tenant VALUE`)
	}
	switch kv[0] {
	case "iters":
		n, err := strconv.Atoi(kv[1])
		if err != nil {
			return err
		}
		sh.iters = n
	case "seed":
		n, err := strconv.ParseUint(kv[1], 10, 64)
		if err != nil {
			return err
		}
		sh.seed = n
	case "workers":
		n, err := strconv.Atoi(kv[1])
		if err != nil {
			return err
		}
		sh.workers = n
	case "tenant":
		sh.tenant = kv[1]
	default:
		return fmt.Errorf("unknown setting %q", kv[0])
	}
	return nil
}

// runSQL posts one statement to /v1/sql and renders the answer.
func (sh *shell) runSQL(ctx context.Context, sql string, explain bool) error {
	req := server.SQLRequest{
		Tenant:     sh.tenant,
		SQL:        sql,
		Explain:    explain,
		Iterations: sh.iters,
		Seed:       sh.seed,
		Workers:    sh.workers,
	}
	var resp server.SQLResponse
	if err := sh.post(ctx, "/v1/sql", req, &resp); err != nil {
		return err
	}
	if explain {
		fmt.Fprint(sh.out, resp.Plan)
		return nil
	}
	su := resp.Summary
	fmt.Fprintf(sh.out, "n=%d mean=%.6g ± %.3g (95%% CI), var=%.4g, median=%.6g\n",
		su.N, su.Mean, su.CI95, su.Variance, su.Median)
	fmt.Fprintf(sh.out, "effective seed %d, %d shard(s), cached=%v\n",
		resp.EffectiveSeed, resp.Shards, resp.Cached)
	return nil
}

func (sh *shell) post(ctx context.Context, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, sh.addr+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpResp, err := sh.client.Do(httpReq)
	if err != nil {
		return err
	}
	defer httpResp.Body.Close()
	data, err := io.ReadAll(httpResp.Body)
	if err != nil {
		return err
	}
	if httpResp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fmt.Errorf("server: %s (%s)", e.Error, httpResp.Status)
		}
		return fmt.Errorf("server: %s", httpResp.Status)
	}
	return json.Unmarshal(data, resp)
}

// get fetches a text endpoint and prints it verbatim.
func (sh *shell) get(ctx context.Context, path string) error {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet, sh.addr+path, nil)
	if err != nil {
		return err
	}
	httpResp, err := sh.client.Do(httpReq)
	if err != nil {
		return err
	}
	defer httpResp.Body.Close()
	data, err := io.ReadAll(httpResp.Body)
	if err != nil {
		return err
	}
	if httpResp.StatusCode != http.StatusOK {
		return fmt.Errorf("server: %s: %s", httpResp.Status, strings.TrimSpace(string(data)))
	}
	fmt.Fprint(sh.out, string(data))
	return nil
}
