package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"ssr/internal/obs"
	"ssr/internal/realtime"
	"ssr/internal/tenant"
)

// Error codes used in the v1 error envelope.
const (
	CodeInvalidArgument = "invalid_argument"
	CodeNotFound        = "not_found"
	CodeGone            = "gone" // a job evicted from the retained history
	CodeQuotaExhausted  = "quota_exhausted"
	CodePayloadTooLarge = "payload_too_large"
	CodeDraining        = "draining"
	CodeUnavailable     = "unavailable"
	CodeInternal        = "internal"
)

// ErrorInfo is the uniform error payload of every non-2xx response.
type ErrorInfo struct {
	// Code is a stable machine-readable identifier.
	Code string `json:"code"`
	// Message is the human-readable cause.
	Message string `json:"message"`
	// RetryAfterMs advises when to retry (quota backpressure); zero
	// means no advice.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
}

// errorEnvelope wraps ErrorInfo as {"error": {...}}.
type errorEnvelope struct {
	Error ErrorInfo `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError renders err through the uniform envelope, deriving status,
// code and backpressure advice from its type: quota rejections become
// 429 with a Retry-After header, drains 503, a body past maxBodyBytes 413, an
// evicted job 404 gone, unknown IDs stay whatever the handler passed.
func writeError(w http.ResponseWriter, status int, err error) {
	info := ErrorInfo{Message: err.Error()}
	var (
		qe       *tenant.QuotaError
		tooLarge *http.MaxBytesError
	)
	switch {
	case errors.As(err, &qe):
		status = http.StatusTooManyRequests
		info.Code = CodeQuotaExhausted
		info.RetryAfterMs = qe.RetryAfter.Milliseconds()
		// Retry-After is whole seconds; round up so the client never
		// retries before the advised instant.
		secs := (info.RetryAfterMs + 999) / 1000
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	case errors.Is(err, ErrDraining):
		status = http.StatusServiceUnavailable
		info.Code = CodeDraining
	case errors.Is(err, realtime.ErrStopped):
		status = http.StatusServiceUnavailable
		info.Code = CodeUnavailable
	case errors.Is(err, ErrGone):
		status = http.StatusNotFound
		info.Code = CodeGone
	case errors.As(err, &tooLarge):
		status = http.StatusRequestEntityTooLarge
		info.Code = CodePayloadTooLarge
	default:
		switch status {
		case http.StatusBadRequest:
			info.Code = CodeInvalidArgument
		case http.StatusNotFound:
			info.Code = CodeNotFound
		case http.StatusServiceUnavailable:
			info.Code = CodeUnavailable
		default:
			info.Code = CodeInternal
		}
	}
	writeJSON(w, status, errorEnvelope{Error: info})
}

// NewHandler exposes a Service over HTTP/JSON. The v1 surface:
//
//	POST /v1/jobs           admit a JobSpec (optional "tenant" field);
//	                        201 with the initial JobStatus, 429 with
//	                        Retry-After on quota rejection, 413 for a
//	                        body over 1 MiB
//	GET  /v1/jobs           paginated list of the retained jobs: ?limit=N&after=ID
//	                        and ?tenant= filtering; returns {"jobs", "nextAfter"}
//	GET  /v1/jobs/{id}      one job's status; 404 gone once the job has left
//	                        the retained history (the newest 10,000
//	                        terminal jobs)
//	GET  /v1/tenants        every tenant's quota and usage
//	GET  /v1/tenants/{id}   one tenant's quota and usage
//	GET  /v1/cluster        per-slot cluster state
//	GET  /v1/nodes          per-node lifecycle state (speed, pool, drain)
//	POST /v1/nodes/{id}/drain    put a node on preemption notice
//	                        (?shard=N&noticeMs=M, notice default 1s)
//	POST /v1/nodes/{id}/undrain  cancel a pending notice (?shard=N)
//	GET  /v1/metrics        utilization, counters, slowdowns (JSON);
//	                        ?format=prometheus for text exposition 0.0.4
//	GET  /v1/trace          recorded task attempts (JSON); ?format=csv,
//	                        or ?format=perfetto for Chrome trace-event JSON
//	GET  /v1/audit          reservation-decision stream as JSON Lines
//	GET  /v1/estimators     live adaptive-SSR estimator snapshots per
//	                        (tenant, class); 404 unless Config.Adaptive
//	GET  /v1/events         server-sent event stream (Last-Event-ID resume)
//	GET  /v1/healthz        liveness
//
// Every error response is the uniform envelope
// {"error": {"code", "message", "retry_after_ms"}}.
func NewHandler(svc *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		s := getScratch()
		defer s.release()
		spec, err := s.readJobSpec(w, r)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("decode job spec: %w", err))
			return
		}
		st, err := svc.Submit(spec)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		s.writeJobStatus(w, http.StatusCreated, &st)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		limit := 0
		if v := q.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", v))
				return
			}
			limit = n
		}
		after := int64(0)
		if v := q.Get("after"); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 0 {
				writeError(w, http.StatusBadRequest, fmt.Errorf("bad after %q", v))
				return
			}
			after = n
		}
		list, err := svc.ListPage(limit, after, q.Get("tenant"))
		if err != nil {
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		s := getScratch()
		defer s.release()
		s.writeJobList(w, http.StatusOK, &list)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad job id %q", r.PathValue("id")))
			return
		}
		st, found, err := svc.Status(id)
		switch {
		case err != nil:
			writeError(w, http.StatusServiceUnavailable, err)
		case !found:
			writeError(w, http.StatusNotFound, fmt.Errorf("no job %d", id))
		default:
			s := getScratch()
			defer s.release()
			s.writeJobStatus(w, http.StatusOK, &st)
		}
	})
	mux.HandleFunc("GET /v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.TenantStatuses())
	})
	mux.HandleFunc("GET /v1/tenants/{id}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("id")
		for _, ts := range svc.TenantStatuses() {
			if ts.Name == name {
				writeJSON(w, http.StatusOK, ts)
				return
			}
		}
		writeError(w, http.StatusNotFound, fmt.Errorf("no tenant %q", name))
	})
	mux.HandleFunc("GET /v1/cluster", func(w http.ResponseWriter, r *http.Request) {
		cs, err := svc.Cluster()
		if err != nil {
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		writeJSON(w, http.StatusOK, cs)
	})
	mux.HandleFunc("GET /v1/nodes", func(w http.ResponseWriter, r *http.Request) {
		ns, err := svc.Nodes()
		if err != nil {
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		writeJSON(w, http.StatusOK, ns)
	})
	// nodeTarget parses the {id} path segment and ?shard= of the node
	// admin endpoints; !ok means the error response is already written.
	nodeTarget := func(w http.ResponseWriter, r *http.Request) (shard, node int, ok bool) {
		node, err := strconv.Atoi(r.PathValue("id"))
		if err != nil || node < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad node id %q", r.PathValue("id")))
			return 0, 0, false
		}
		if v := r.URL.Query().Get("shard"); v != "" {
			shard, err = strconv.Atoi(v)
			if err != nil || shard < 0 {
				writeError(w, http.StatusBadRequest, fmt.Errorf("bad shard %q", v))
				return 0, 0, false
			}
		}
		return shard, node, true
	}
	mux.HandleFunc("POST /v1/nodes/{id}/drain", func(w http.ResponseWriter, r *http.Request) {
		shard, node, ok := nodeTarget(w, r)
		if !ok {
			return
		}
		notice := time.Second
		if v := r.URL.Query().Get("noticeMs"); v != "" {
			ms, err := strconv.ParseFloat(v, 64)
			if err != nil || ms <= 0 {
				writeError(w, http.StatusBadRequest, fmt.Errorf("bad noticeMs %q", v))
				return
			}
			notice = durOf(ms)
		}
		if err := svc.DrainNode(shard, node, notice); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "draining"})
	})
	mux.HandleFunc("POST /v1/nodes/{id}/undrain", func(w http.ResponseWriter, r *http.Request) {
		shard, node, ok := nodeTarget(w, r)
		if !ok {
			return
		}
		if err := svc.UndrainNode(shard, node); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "up"})
	})
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("format") {
		case "prometheus":
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := svc.WritePrometheus(w); err != nil {
				writeError(w, http.StatusServiceUnavailable, err)
			}
		case "", "json":
			ms, err := svc.Metrics()
			if err != nil {
				writeError(w, http.StatusServiceUnavailable, err)
				return
			}
			writeJSON(w, http.StatusOK, ms)
		default:
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("unknown metrics format %q", r.URL.Query().Get("format")))
		}
	})
	mux.HandleFunc("GET /v1/trace", func(w http.ResponseWriter, r *http.Request) {
		rec := svc.Trace()
		if rec == nil {
			writeError(w, http.StatusNotFound,
				errors.New("trace recording disabled (Config.RecordTrace)"))
			return
		}
		switch r.URL.Query().Get("format") {
		case "", "json":
			w.Header().Set("Content-Type", "application/json")
			_ = rec.WriteJSON(w)
		case "csv":
			w.Header().Set("Content-Type", "text/csv")
			_ = rec.WriteCSV(w)
		case "perfetto":
			w.Header().Set("Content-Type", "application/json")
			_ = obs.WritePerfetto(w, rec.Events(), svc.Audit().Events())
		default:
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("unknown trace format %q", r.URL.Query().Get("format")))
		}
	})
	mux.HandleFunc("GET /v1/audit", func(w http.ResponseWriter, r *http.Request) {
		audit := svc.Audit()
		if audit == nil {
			writeError(w, http.StatusNotFound,
				errors.New("audit stream disabled (Config.AuditCapacity < 0)"))
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = audit.WriteJSONL(w)
	})
	mux.HandleFunc("GET /v1/estimators", func(w http.ResponseWriter, r *http.Request) {
		est := svc.Estimators()
		if est == nil {
			writeError(w, http.StatusNotFound,
				errors.New("adaptive estimation disabled (Config.Adaptive)"))
			return
		}
		writeJSON(w, http.StatusOK, EstimatorList{Classes: est.Snapshot()})
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/events", func(w http.ResponseWriter, r *http.Request) {
		serveEvents(svc, w, r)
	})
	return mux
}

// serveEvents streams the bus as server-sent events. The client resumes
// after a disconnect by sending Last-Event-ID (or ?since=N): replay starts
// at the first retained event past it, then continues live with no gap.
func serveEvents(svc *Service, w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("response writer cannot stream"))
		return
	}
	since := uint64(0)
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			// Resume after n. Nothing follows the largest ID, and n+1
			// would wrap to 0, which replays everything.
			since = n
			if n < math.MaxUint64 {
				since = n + 1
			}
		}
	}
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad since %q", v))
			return
		}
		since = n
	}
	replay, sub := svc.Subscribe(since, 1024)
	defer sub.Cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	var frame []byte // this connection's, reused for every event
	send := func(ev *Event) (err error) {
		if frame, err = appendSSE(frame[:0], ev); err == nil {
			_, err = w.Write(frame)
		}
		return err
	}
	for i := range replay {
		if send(&replay[i]) != nil {
			return
		}
	}
	flusher.Flush()
	for {
		select {
		case ev, open := <-sub.C:
			if !open {
				return // dropped for lagging, or the bus closed
			}
			if send(&ev) != nil {
				return
			}
			// Drain whatever else is already buffered before flushing,
			// so a burst costs one flush instead of hundreds.
			for {
				select {
				case ev, open := <-sub.C:
					if !open {
						return
					}
					if send(&ev) != nil {
						return
					}
					continue
				default:
				}
				break
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
