package router

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"probe"
	"probe/internal/server"
)

// TestMetricsBeforeReply is the router's half of the contract that a
// request's metrics happen-before its terminal frame: right after each
// reply — a DONE for a range, an ERROR for a query that fails to
// parse — a /metrics scrape already counts that request.
func TestMetricsBeforeReply(t *testing.T) {
	g := clusterGrid()
	addrs := make([]string, 2)
	for i := range addrs {
		db, err := probe.Open(g)
		if err != nil {
			t.Fatal(err)
		}
		_, addrs[i] = startShard(t, db, server.Config{})
	}
	m, err := BuildEvenMap(DefaultPrefixBits(2), addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, raddr := startRouter(t, m, Config{})
	cl := dialRouter(t, raddr)
	insertThrough(t, cl, clusterPoints(rand.New(rand.NewSource(5)), 400, 1))
	admin := httptest.NewServer(r.AdminHandler())
	defer admin.Close()
	ctx := context.Background()
	for i := 1; i <= 50; i++ {
		if _, _, err := cl.Range(ctx, []uint32{0, 0}, []uint32{700, 700}); err != nil {
			t.Fatalf("range %d: %v", i, err)
		}
		if got := scrapeInt(t, admin.URL, "probe_router_router_latency_range_count"); got != i {
			t.Fatalf("after range reply %d, /metrics counts %d", i, got)
		}
		if _, err := cl.Query(ctx, "SELEKT"); err == nil {
			t.Fatalf("query %d: a parse error was accepted", i)
		}
		if got := scrapeInt(t, admin.URL, "probe_router_router_latency_query_count"); got != i {
			t.Fatalf("after query error reply %d, /metrics counts %d", i, got)
		}
	}
}

// scrapeInt reads one sample from the admin server's /metrics; a
// missing sample reads as 0.
func scrapeInt(t *testing.T, url, name string) int {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return n
		}
	}
	return 0
}
