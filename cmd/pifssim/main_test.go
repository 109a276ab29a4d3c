package main

import (
	"net/http"
	"testing"
)

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
