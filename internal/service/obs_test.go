package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// waitTerminal polls until n jobs are terminal or the deadline passes. It reads
// the service's counters, which also count the jobs the table has evicted.
func waitTerminal(t *testing.T, svc *Service, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		ms, err := svc.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		done := ms.JobsCompleted + ms.JobsFailed
		if done >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d jobs terminal at deadline", done, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

var promLine = regexp.MustCompile(
	`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*.*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+)$`)

// TestPrometheusEndpoint drives a small SSR run and scrapes
// GET /v1/metrics?format=prometheus: the exposition must lint, carry at least
// ten metric families including a histogram, and agree with the JSON view.
func TestPrometheusEndpoint(t *testing.T) {
	svc := newTestService(t, Config{
		Nodes: 4, SlotsPerNode: 2, Dilation: 500,
		Driver: ssrOptions(), RecordTrace: true,
	})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	const jobs = 8
	for i := 0; i < jobs; i++ {
		if _, err := svc.Submit(tinySpec("scrape", 1+i%3)); err != nil {
			t.Fatal(err)
		}
	}
	waitTerminal(t, svc, jobs)

	resp, err := http.Get(ts.URL + "/v1/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics?format=prometheus: %d\n%s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}

	families := map[string]string{} // name -> type
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if !promLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			families[parts[2]] = parts[3]
		}
	}
	if len(families) < 10 {
		t.Errorf("exposition has %d families, want >= 10:\n%v", len(families), families)
	}
	histograms := 0
	for _, typ := range families {
		if typ == "histogram" {
			histograms++
		}
	}
	if histograms < 1 {
		t.Error("exposition has no histogram family")
	}
	for _, want := range []string{
		"ssr_jobs_completed", "ssr_utilization_ratio", "ssr_bus_dropped_subscribers",
		"ssr_reservations_total", "ssr_queue_wait_seconds",
	} {
		if _, ok := families[want]; !ok {
			t.Errorf("exposition missing family %s", want)
		}
	}
	if !strings.Contains(string(body), "ssr_jobs_completed "+strconv.Itoa(jobs)) {
		t.Errorf("exposition does not report %d completed jobs", jobs)
	}
	// Scheduler families carry the shard label.
	if !strings.Contains(string(body), `ssr_reservations_total{shard="0"}`) {
		t.Error("per-shard scheduler counters missing shard label")
	}

	// The Perfetto and audit endpoints serve the same run.
	resp, err = http.Get(ts.URL + "/v1/trace?format=perfetto")
	if err != nil {
		t.Fatal(err)
	}
	perf, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(perf), `"traceEvents"`) {
		t.Errorf("GET /trace?format=perfetto: %d, body %.120s", resp.StatusCode, perf)
	}
	resp, err = http.Get(ts.URL + "/v1/audit")
	if err != nil {
		t.Fatal(err)
	}
	audit, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(audit), `"kind"`) {
		t.Errorf("GET /audit: %d, body %.120s", resp.StatusCode, audit)
	}
}

// TestDroppedSubscribersObserved wedges a subscriber behind a full buffer
// and checks the drop shows up in both the JSON metrics view and the
// Prometheus exposition.
func TestDroppedSubscribersObserved(t *testing.T) {
	svc := newTestService(t, Config{
		Nodes: 2, SlotsPerNode: 2, Dilation: 500, Driver: ssrOptions(),
	})
	// Buffer of 1, never read: the first burst of scheduler events drops it.
	_, lagger := svc.Subscribe(0, 1)
	defer lagger.Cancel()

	if _, err := svc.Submit(tinySpec("drop", 1)); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, svc, 1)

	deadline := time.Now().Add(10 * time.Second)
	for svc.bus.Dropped() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("lagging subscriber was never dropped")
		}
		time.Sleep(time.Millisecond)
	}
	ms, err := svc.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if ms.DroppedSubscribers < 1 {
		t.Errorf("JSON DroppedSubscribers = %d, want >= 1", ms.DroppedSubscribers)
	}
	var b strings.Builder
	if err := svc.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "ssr_bus_dropped_subscribers ") {
			found = true
			if strings.TrimPrefix(line, "ssr_bus_dropped_subscribers ") == "0" {
				t.Errorf("exposition gauge reads 0 after a drop: %q", line)
			}
		}
	}
	if !found {
		t.Error("exposition missing ssr_bus_dropped_subscribers sample")
	}
}

// TestAuditDisabled checks the negative-capacity opt-out: no audit stream,
// 404 on /audit, scheduling unaffected.
func TestAuditDisabled(t *testing.T) {
	svc := newTestService(t, Config{
		Nodes: 2, SlotsPerNode: 2, Dilation: 500,
		Driver: ssrOptions(), AuditCapacity: -1,
	})
	if svc.Audit() != nil {
		t.Fatal("audit should be nil with AuditCapacity < 0")
	}
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	if _, err := svc.Submit(tinySpec("quiet", 1)); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, svc, 1)
	resp, err := http.Get(ts.URL + "/v1/audit")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /audit with audit disabled: %d, want 404", resp.StatusCode)
	}
	// Metrics still flow: the registry is always on.
	var b strings.Builder
	if err := svc.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "ssr_jobs_completed 1") {
		t.Errorf("exposition missing completed job:\n%.300s", b.String())
	}
}
