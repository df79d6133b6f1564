package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ssr/internal/tenant"
)

// wideSpec is a single-phase job whose slot demand (max parallelism) is
// width, used to trip per-tenant slot caps deterministically.
func wideSpec(name string, width int) JobSpec {
	durs := make([]float64, width)
	for i := range durs {
		durs[i] = 50
	}
	return JobSpec{Name: name, Priority: 5, Phases: []PhaseSpec{{DurationsMs: durs}}}
}

// decodeEnvelope asserts resp carries the uniform v1 error envelope and
// returns it.
func decodeEnvelope(t *testing.T, resp *http.Response) ErrorInfo {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("error response Content-Type = %q, want application/json", ct)
	}
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("error body is not the envelope: %v", err)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Errorf("envelope missing code or message: %+v", env.Error)
	}
	return env.Error
}

// TestHandlerErrorEnvelope walks every route's error paths and asserts the
// uniform {"error": {code, message}} envelope with the right status and
// machine code.
func TestHandlerErrorEnvelope(t *testing.T) {
	svc := newTestService(t, Config{Nodes: 2, SlotsPerNode: 2, Dilation: 200})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"submit bad json", "POST", "/v1/jobs", "{not json", http.StatusBadRequest, CodeInvalidArgument},
		{"submit invalid spec", "POST", "/v1/jobs", `{"name":"x"}`, http.StatusBadRequest, CodeInvalidArgument},
		{"submit bad tenant name", "POST", "/v1/jobs", `{"name":"x","tenant":"no spaces","phases":[{"durationsMs":[1]}]}`, http.StatusBadRequest, CodeInvalidArgument},
		{"submit duration too large", "POST", "/v1/jobs", `{"name":"x","phases":[{"durationsMs":[1e16]}]}`, http.StatusBadRequest, CodeInvalidArgument},
		{"submit total duration too large", "POST", "/v1/jobs", `{"name":"x","phases":[{"durationsMs":[5e12,5e12]}]}`, http.StatusBadRequest, CodeInvalidArgument},
		{"list bad limit", "GET", "/v1/jobs?limit=abc", "", http.StatusBadRequest, CodeInvalidArgument},
		{"list negative limit", "GET", "/v1/jobs?limit=-2", "", http.StatusBadRequest, CodeInvalidArgument},
		{"list bad after", "GET", "/v1/jobs?after=xyz", "", http.StatusBadRequest, CodeInvalidArgument},
		{"job bad id", "GET", "/v1/jobs/abc", "", http.StatusBadRequest, CodeInvalidArgument},
		{"job unknown id", "GET", "/v1/jobs/424242", "", http.StatusNotFound, CodeNotFound},
		{"tenant unknown", "GET", "/v1/tenants/nobody", "", http.StatusNotFound, CodeNotFound},
		{"metrics bad format", "GET", "/v1/metrics?format=bogus", "", http.StatusBadRequest, CodeInvalidArgument},
		{"trace disabled", "GET", "/v1/trace", "", http.StatusNotFound, CodeNotFound},
		{"events bad since", "GET", "/v1/events?since=abc", "", http.StatusBadRequest, CodeInvalidArgument},
		{"submit body over the limit", "POST", "/v1/jobs", paddedSpec(maxBodyBytes+1, 2), http.StatusRequestEntityTooLarge, CodePayloadTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body io.Reader
			if tc.body != "" {
				body = strings.NewReader(tc.body)
			}
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			info := decodeEnvelope(t, resp)
			if info.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", info.Code, tc.wantCode)
			}
		})
	}

	// The unversioned aliases of earlier releases are gone, not redirected.
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if body, _ := io.ReadAll(resp.Body); resp.StatusCode != http.StatusNotFound || strings.Contains(string(body), `"error"`) {
		t.Errorf("GET /jobs = %d %q, want the mux's plain 404", resp.StatusCode, body)
	}
}

// TestQuotaRejectionHTTP asserts the backpressure contract end to end: a
// submit exceeding the tenant's hard slot cap yields 429, the
// quota_exhausted code, retry_after_ms advice in the envelope and a
// whole-seconds Retry-After header.
func TestQuotaRejectionHTTP(t *testing.T) {
	reg := tenant.NewRegistry()
	if err := reg.Configure(tenant.Config{Name: "tiny", MaxSlots: 1}); err != nil {
		t.Fatal(err)
	}
	svc := newTestService(t, Config{Nodes: 4, SlotsPerNode: 2, Dilation: 200, Tenants: reg})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	cli := NewClient(ts.URL)

	spec := wideSpec("fat", 4)
	spec.Tenant = "tiny"
	_, err := cli.Submit(context.Background(), spec)
	if err == nil {
		t.Fatal("4-wide job admitted past MaxSlots=1")
	}
	if !IsQuotaExhausted(err) {
		t.Fatalf("error is not a quota rejection: %v", err)
	}
	if ra := RetryAfter(err); ra <= 0 {
		t.Errorf("quota rejection carries no Retry-After advice: %v", err)
	}
	if !tenant.IsQuota(svc.Tenants().Admit("tiny", 4, 4)) {
		t.Error("registry state inconsistent: oversized admit should still fail")
	}

	// Raw request to check the wire shape the client helpers hide.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"name":"fat","tenant":"tiny","priority":5,"phases":[{"durationsMs":[50,50,50,50]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After header")
	}
	info := decodeEnvelope(t, resp)
	if info.Code != CodeQuotaExhausted {
		t.Errorf("code = %q, want %q", info.Code, CodeQuotaExhausted)
	}
	if info.RetryAfterMs <= 0 {
		t.Errorf("retry_after_ms = %d, want > 0", info.RetryAfterMs)
	}
}

// TestDrainingEnvelope asserts a submit during drain maps to 503 with the
// draining code.
func TestDrainingEnvelope(t *testing.T) {
	svc := newTestService(t, Config{Nodes: 2, SlotsPerNode: 2, Dilation: 200})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"name":"late","priority":1,"phases":[{"durationsMs":[10]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if info := decodeEnvelope(t, resp); info.Code != CodeDraining {
		t.Errorf("code = %q, want %q", info.Code, CodeDraining)
	}
}

// TestPaginationAndTenantFilter submits jobs under two tenants and checks
// the v1 listing: page walking covers everything exactly once, nextAfter
// terminates, and the tenant filter returns only that tenant's jobs.
func TestPaginationAndTenantFilter(t *testing.T) {
	svc := newTestService(t, Config{Nodes: 8, SlotsPerNode: 2, Dilation: 500})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	cli := NewClient(ts.URL)

	const perTenant = 5
	for i := 0; i < perTenant; i++ {
		for _, tn := range []string{"alpha", "beta"} {
			spec := tinySpec(fmt.Sprintf("%s-%d", tn, i), 3)
			spec.Tenant = tn
			if _, err := cli.Submit(context.Background(), spec); err != nil {
				t.Fatalf("submit %s/%d: %v", tn, i, err)
			}
		}
	}

	seen := make(map[int64]bool)
	after, pages := int64(0), 0
	for {
		page, err := cli.JobsPage(context.Background(), 3, after, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(page.Jobs) > 3 {
			t.Fatalf("page holds %d jobs, limit was 3", len(page.Jobs))
		}
		for _, st := range page.Jobs {
			if seen[st.ID] {
				t.Fatalf("job %d appeared on two pages", st.ID)
			}
			if st.ID <= after {
				t.Fatalf("job %d on page after=%d", st.ID, after)
			}
			seen[st.ID] = true
		}
		pages++
		if page.NextAfter == 0 {
			break
		}
		after = page.NextAfter
		if pages > 20 {
			t.Fatal("pagination does not terminate")
		}
	}
	if len(seen) != 2*perTenant {
		t.Fatalf("paged listing found %d jobs, want %d", len(seen), 2*perTenant)
	}

	page, err := cli.JobsPage(context.Background(), 0, 0, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Jobs) != perTenant {
		t.Fatalf("tenant filter returned %d jobs, want %d", len(page.Jobs), perTenant)
	}
	for _, st := range page.Jobs {
		if st.Tenant != "alpha" {
			t.Errorf("job %d has tenant %q under filter alpha", st.ID, st.Tenant)
		}
	}
}

// TestTwoTenantsNeverExceedCaps is the concurrency guard on the admission
// path: two tenants with hard slot caps hammered from many goroutines must
// never be observed above their caps, and every rejection must be a typed
// quota error. Run under -race this also exercises the registry locking.
func TestTwoTenantsNeverExceedCaps(t *testing.T) {
	const cap = 4
	reg := tenant.NewRegistry()
	for _, name := range []string{"a", "b"} {
		if err := reg.Configure(tenant.Config{Name: name, MaxSlots: cap}); err != nil {
			t.Fatal(err)
		}
	}
	svc := newTestService(t, Config{Nodes: 4, SlotsPerNode: 2, Dilation: 500, Tenants: reg})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	cli := NewClient(ts.URL)

	stopSample := make(chan struct{})
	sampleDone := make(chan struct{})
	go func() {
		defer close(sampleDone)
		for {
			select {
			case <-stopSample:
				return
			default:
			}
			for _, st := range svc.TenantStatuses() {
				if (st.Name == "a" || st.Name == "b") && st.SlotsInUse > cap {
					t.Errorf("tenant %s observed at %d slots, cap %d", st.Name, st.SlotsInUse, cap)
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		admitted int
		rejected int
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tn := []string{"a", "b"}[g%2]
			for i := 0; i < 10; i++ {
				spec := wideSpec(fmt.Sprintf("%s-%d-%d", tn, g, i), 2)
				spec.Tenant = tn
				_, err := cli.Submit(context.Background(), spec)
				mu.Lock()
				switch {
				case err == nil:
					admitted++
				case IsQuotaExhausted(err):
					rejected++
				default:
					t.Errorf("unexpected submit error: %v", err)
				}
				mu.Unlock()
				if err != nil {
					// Brief backoff lets in-flight jobs release slots so
					// the run makes progress instead of spinning on 429s.
					time.Sleep(2 * time.Millisecond)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stopSample)
	<-sampleDone

	if admitted == 0 {
		t.Fatal("no job was ever admitted")
	}
	if rejected == 0 {
		t.Error("caps never tripped: widen the load or shrink the caps")
	}

	// Drain and assert the registry returns to zero outstanding usage.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for _, st := range svc.TenantStatuses() {
		if st.SlotsInUse != 0 || st.TasksInFlight != 0 || st.JobsPending != 0 {
			t.Errorf("tenant %s left with usage after drain: %+v", st.Name, st)
		}
	}
}
