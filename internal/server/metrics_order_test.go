package server

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// TestMetricsBeforeReply pins the contract that a request's metrics
// happen-before its terminal frame: right after each reply — a DONE
// for a range, an ERROR for a query that fails to parse — a /metrics
// scrape already counts that request in its latency histogram.
func TestMetricsBeforeReply(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	srv, addr, _ := startServer(t, Config{}, randPoints(rng, 500, 0))
	cl := dial(t, addr)
	admin := httptest.NewServer(srv.AdminHandler())
	defer admin.Close()
	ctx := context.Background()
	for i := 1; i <= 50; i++ {
		if _, _, err := cl.Range(ctx, []uint32{0, 0}, []uint32{300, 300}); err != nil {
			t.Fatalf("range %d: %v", i, err)
		}
		if got := scrapeInt(t, admin.URL, "probe_server_server_latency_range_count"); got != i {
			t.Fatalf("after range reply %d, /metrics counts %d", i, got)
		}
		if _, err := cl.Query(ctx, "SELEKT"); err == nil {
			t.Fatalf("query %d: a parse error was accepted", i)
		}
		if got := scrapeInt(t, admin.URL, "probe_server_server_latency_query_count"); got != i {
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
