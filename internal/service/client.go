package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client is a programmatic client for the ssrd HTTP API, used by the load
// generator (cmd/ssrload), the example client and the end-to-end tests.
// It speaks the versioned /v1 surface.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8347".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
}

// NewClient returns a client for the daemon at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// apiError is a non-2xx response decoded from the v1 error envelope.
type apiError struct {
	Status     int
	Code       string
	Msg        string
	RetryAfter time.Duration
}

func (e *apiError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("service: http %d (%s): %s", e.Status, e.Code, e.Msg)
	}
	return fmt.Sprintf("service: http %d: %s", e.Status, e.Msg)
}

// IsUnavailable reports whether err is a 503 — the daemon refusing
// admission because it is draining or stopped.
func IsUnavailable(err error) bool {
	var ae *apiError
	return errors.As(err, &ae) && ae.Status == http.StatusServiceUnavailable
}

// IsGone reports whether err is a 404 for a job the daemon admitted and has
// since evicted from its retained history.
func IsGone(err error) bool {
	var ae *apiError
	return errors.As(err, &ae) && ae.Code == CodeGone
}

// IsQuotaExhausted reports whether err is a 429 quota rejection.
func IsQuotaExhausted(err error) bool {
	var ae *apiError
	return errors.As(err, &ae) && ae.Status == http.StatusTooManyRequests
}

// RetryAfter extracts the server's backpressure advice from a quota
// rejection; zero when err carries none.
func RetryAfter(err error) time.Duration {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.RetryAfter
	}
	return 0
}

// decodeError turns a non-2xx response into an *apiError, reading the v1
// envelope (and falling back to the HTTP status line for foreign bodies).
func decodeError(resp *http.Response) error {
	ae := &apiError{Status: resp.StatusCode, Msg: resp.Status}
	var env errorEnvelope
	if json.NewDecoder(resp.Body).Decode(&env) == nil && env.Error.Message != "" {
		ae.Code = env.Error.Code
		ae.Msg = env.Error.Message
		ae.RetryAfter = time.Duration(env.Error.RetryAfterMs) * time.Millisecond
	}
	if ae.RetryAfter == 0 {
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return ae
}

func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit admits a job and returns its initial status (including the
// assigned ID). A quota rejection is reported as an error satisfying
// IsQuotaExhausted, carrying the server's RetryAfter advice.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &st)
	return st, err
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id int64) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/jobs/%d", id), nil, &st)
	return st, err
}

// Jobs lists every retained job, walking the paginated v1 listing to
// exhaustion.
func (c *Client) Jobs(ctx context.Context) ([]JobStatus, error) {
	var out []JobStatus
	after := int64(0)
	for {
		page, err := c.JobsPage(ctx, 0, after, "")
		if err != nil {
			return out, err
		}
		out = append(out, page.Jobs...)
		if page.NextAfter == 0 {
			return out, nil
		}
		after = page.NextAfter
	}
}

// JobsPage fetches one page of the job listing: at most limit entries
// (0 = no limit) with IDs greater than after, optionally filtered by
// tenant.
func (c *Client) JobsPage(ctx context.Context, limit int, after int64, tenant string) (JobList, error) {
	q := url.Values{}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	if after > 0 {
		q.Set("after", strconv.FormatInt(after, 10))
	}
	if tenant != "" {
		q.Set("tenant", tenant)
	}
	path := "/v1/jobs"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var out JobList
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// Tenants lists every tenant's quota and usage.
func (c *Client) Tenants(ctx context.Context) ([]TenantStatus, error) {
	var out []TenantStatus
	err := c.do(ctx, http.MethodGet, "/v1/tenants", nil, &out)
	return out, err
}

// Tenant fetches one tenant's quota and usage.
func (c *Client) Tenant(ctx context.Context, name string) (TenantStatus, error) {
	var out TenantStatus
	err := c.do(ctx, http.MethodGet, "/v1/tenants/"+url.PathEscape(name), nil, &out)
	return out, err
}

// Cluster fetches the per-slot cluster view.
func (c *Client) Cluster(ctx context.Context) (ClusterStatus, error) {
	var cs ClusterStatus
	err := c.do(ctx, http.MethodGet, "/v1/cluster", nil, &cs)
	return cs, err
}

// Nodes fetches every node's lifecycle view.
func (c *Client) Nodes(ctx context.Context) ([]NodeStatus, error) {
	var out []NodeStatus
	err := c.do(ctx, http.MethodGet, "/v1/nodes", nil, &out)
	return out, err
}

// DrainNode puts a node on preemption notice: the scheduler relocates its
// reservations and work that cannot finish inside the window.
func (c *Client) DrainNode(ctx context.Context, shard, node int, notice time.Duration) error {
	path := fmt.Sprintf("/v1/nodes/%d/drain?shard=%d&noticeMs=%d", node, shard, notice.Milliseconds())
	return c.do(ctx, http.MethodPost, path, nil, nil)
}

// UndrainNode cancels a pending drain notice, returning the node to Up.
func (c *Client) UndrainNode(ctx context.Context, shard, node int) error {
	path := fmt.Sprintf("/v1/nodes/%d/undrain?shard=%d", node, shard)
	return c.do(ctx, http.MethodPost, path, nil, nil)
}

// Metrics fetches the service metrics view.
func (c *Client) Metrics(ctx context.Context) (MetricsStatus, error) {
	var ms MetricsStatus
	err := c.do(ctx, http.MethodGet, "/v1/metrics", nil, &ms)
	return ms, err
}

// Estimators fetches the live adaptive-SSR estimator snapshots
// (GET /v1/estimators); it errors when the service runs without
// Config.Adaptive.
func (c *Client) Estimators(ctx context.Context) (EstimatorList, error) {
	var el EstimatorList
	err := c.do(ctx, http.MethodGet, "/v1/estimators", nil, &el)
	return el, err
}

// WaitJob polls until the job reaches a terminal state, the poll interval
// defaulting to 10ms when interval is zero or negative. A job that ends and is
// evicted from the daemon's retained history between two polls ends the wait
// with an error satisfying IsGone.
func (c *Client) WaitJob(ctx context.Context, id int64, interval time.Duration) (JobStatus, error) {
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return st, err
		}
		if TerminalState(st.State) {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-ticker.C:
		}
	}
}

// StreamEvents opens the SSE stream starting at sequence number since
// (0 replays all retained history) and calls fn for every event, in bus
// order. It returns when ctx is canceled, the stream ends, or fn returns a
// non-nil error (which it propagates).
func (c *Client) StreamEvents(ctx context.Context, since uint64, fn func(Event) error) error {
	url := fmt.Sprintf("%s/v1/events?since=%d", c.BaseURL, since)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if len(data) > 0 {
				var ev Event
				if err := json.Unmarshal(data, &ev); err != nil {
					return fmt.Errorf("service: bad event payload: %w", err)
				}
				if err := fn(ev); err != nil {
					return err
				}
				data = data[:0]
			}
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " ")...)
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return err
	}
	return nil
}
