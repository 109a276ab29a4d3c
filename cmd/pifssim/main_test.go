package main

import (
	"context"
	"errors"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// runMainEnv, when set in a test binary's environment, makes that binary
// run pifssim's main with the value's space-separated arguments instead of
// the tests, so a test can check the command's exit code and stderr.
const runMainEnv = "PIFSSIM_TEST_MAIN_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(runMainEnv); ok {
		os.Args = append([]string{"pifssim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestWorkerLeaseFlagsOutOfBounds runs pifssim -worker with a -lease-max
// or -poll outside what a coordinator grants. Each must exit 2 at once,
// naming the range, instead of being defaulted (a batch or poll of 0) or
// clamped by the coordinator (past 16 jobs or 30 s) behind the user's
// back. The coordinator URL refuses connections, so a worker that started
// anyway would retry until the deadline.
func TestWorkerLeaseFlagsOutOfBounds(t *testing.T) {
	for _, tc := range []struct{ flags, want string }{
		{"-lease-max 0", "[1, 16]"},
		{"-lease-max -3", "[1, 16]"},
		{"-lease-max 17", "[1, 16]"},
		{"-poll 0s", "[1ms, 30s]"},
		{"-poll -1s", "[1ms, 30s]"},
		{"-poll 500us", "[1ms, 30s]"},
		{"-poll 31s", "[1ms, 30s]"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), runMainEnv+"=-worker http://127.0.0.1:1 "+tc.flags)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s: %v, want exit status 2; stderr: %s", tc.flags, err, stderr.String())
			continue
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%s: stderr %q does not name the range %s", tc.flags, stderr.String(), tc.want)
		}
	}
}

// TestServeServerTimeouts pins the -serve listener's timeouts: a client
// that stalls in its headers or body, or idles, is cut off, while a long
// answer (a cold /v1/run waits for its whole sweep) is never cut off.
func TestServeServerTimeouts(t *testing.T) {
	srv := newServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Errorf("read-header %v, read %v, idle %v: each must be set", srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	if srv.ReadHeaderTimeout > srv.ReadTimeout {
		t.Errorf("read-header timeout %v exceeds the whole-request read timeout %v", srv.ReadHeaderTimeout, srv.ReadTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("write timeout %v would cut off a cold /v1/run; want none", srv.WriteTimeout)
	}
	if srv.Addr != "127.0.0.1:0" || srv.Handler == nil {
		t.Errorf("server has addr %q and handler %v", srv.Addr, srv.Handler)
	}
}
