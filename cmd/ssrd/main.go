// Command ssrd runs the SSR scheduler as an online daemon: a simulated
// cluster driven in wall-clock time (with configurable time dilation)
// behind an HTTP/JSON API.
//
//	POST /v1/jobs          submit a workflow job (service.JobSpec, with an
//	                       optional "tenant" field); 429 + Retry-After when
//	                       the tenant's quota rejects it
//	GET  /v1/jobs          paginated list of the retained jobs
//	                       (?limit=&after=&tenant=); GET /v1/jobs/{id} for
//	                       one, 404 "gone" once evicted (see below)
//	GET  /v1/tenants       per-tenant quotas and usage; /v1/tenants/{id}
//	GET  /v1/cluster       per-slot state
//	GET  /v1/nodes         per-node lifecycle state (speed, pool, drain);
//	                       POST /v1/nodes/{id}/drain and .../undrain manage
//	                       preemption notices by hand
//	GET  /v1/metrics       utilization, counters, online slowdowns (JSON);
//	                       ?format=prometheus for text exposition 0.0.4
//	GET  /v1/trace         recorded task attempts (requires -trace);
//	                       ?format=perfetto for Chrome trace-event JSON
//	GET  /v1/audit         reservation-decision audit stream (JSON Lines)
//	GET  /v1/estimators    live adaptive-SSR estimator snapshots
//	                       (requires -adaptive; 404 otherwise)
//	GET  /v1/events        server-sent lifecycle event stream
//	GET  /v1/healthz       liveness
//
// Errors use the uniform envelope {"error": {"code", "message",
// "retry_after_ms"}}; an unknown job ID is code "not_found", an evicted one
// "gone".
//
// The job history is bounded: the daemon keeps the newest 10,000 terminal
// jobs, in the order they ended, and frees the rest; live jobs are never
// evicted.
//
// With -shards K > 1 the cluster is partitioned into K independent
// scheduler shards; -router picks the job-placement policy and idle slots
// are lent across shards for SSR pre-reservation (cap it with -lend).
// -tenants declares per-tenant quotas ("gold:cap=16,weight=3;batch:cap=8");
// -policy swaps the per-shard slot policy (ssr, dagps, sgpack).
//
// Node lifecycle: -speeds sets heterogeneous per-node speed factors
// ("2,1,1,0.5"), -autoscale runs an elastic node pool
// ("min=2,max=8,warmup=2s,notice=1s"), and -preempt injects spot-style
// reclamations with advance notice ("mtbp=30s,notice=2s,recover=10s").
//
// On SIGTERM/SIGINT the daemon drains gracefully: it stops admitting jobs
// (503 on POST /v1/jobs), gives in-flight jobs the -drain grace to finish,
// aborts the rest, flushes the trace file if one was requested, and exits 0.
//
// Example:
//
//	ssrd -addr 127.0.0.1:8347 -nodes 20 -slots 2 -mode ssr -p 0.9 -dilation 100
//	ssrd -nodes 20 -shards 4 -router least-loaded -pprof 127.0.0.1:6060
//	ssrd -nodes 20 -tenants 'gold:cap=24,weight=3,p=0.95;batch:weight=1'
package main

import (
	"context"
	"errors"
	_ "expvar" // registers /debug/vars on the -pprof listener
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -pprof listener
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ssr/internal/core"
	"ssr/internal/driver"
	"ssr/internal/faults"
	"ssr/internal/lifecycle"
	"ssr/internal/service"
	"ssr/internal/shard"
	"ssr/internal/tenant"
)

func main() {
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, syscall.SIGTERM, syscall.SIGINT)
	if err := run(os.Args[1:], sigC, nil); err != nil {
		fmt.Fprintln(os.Stderr, "ssrd:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until a signal arrives on sigC and the
// drain completes. ready, when non-nil, is called with the bound address
// once the listener is up (tests use it with ":0" ports).
func run(args []string, sigC <-chan os.Signal, ready func(addr string)) error {
	fs := flag.NewFlagSet("ssrd", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:8347", "listen address (host:port; port 0 picks one)")
		nodes     = fs.Int("nodes", 20, "cluster nodes")
		perNode   = fs.Int("slots", 2, "slots per node")
		modeName  = fs.String("mode", "ssr", "reservation mode: none, ssr, timeout, static")
		isolation = fs.Float64("p", 0.9, "SSR isolation guarantee P in (0, 1]")
		alpha     = fs.Float64("alpha", 1.6, "operator's Pareto tail estimate for the deadline")
		threshold = fs.Float64("r", 0.5, "SSR pre-reservation threshold R")
		mitigate  = fs.Bool("mitigate", false, "use reserved slots as straggler mitigators")
		adaptive  = fs.Bool("adaptive", false, "re-derive SSR deadlines from streaming tail estimators instead of -alpha alone")
		timeout   = fs.Duration("timeout", 10*time.Second, "reservation timeout (mode=timeout)")
		static    = fs.Int("static", 0, "statically fenced slots (mode=static)")
		dilation  = fs.Float64("dilation", 1, "virtual seconds per wall-clock second")
		drain     = fs.Duration("drain", 10*time.Second, "grace for in-flight jobs on shutdown before aborting them")
		traceOut  = fs.String("trace", "", "flush a per-attempt trace to this file on shutdown (.csv or .json)")
		auditCap  = fs.Int("audit-cap", 0, "audit ring retention in events (0 = default 8192, negative disables)")
		baseline  = fs.Int("baseline-workers", 2, "workers computing alone-JCT slowdown baselines (negative disables)")
		shards    = fs.Int("shards", 1, "scheduler shards the cluster is partitioned into")
		router    = fs.String("router", "hash", "job placement across shards: hash, least-loaded, best-fit")
		lend      = fs.Float64("lend", 0.5, "max fraction of a shard's slots lendable cross-shard (0 disables lending)")
		policy    = fs.String("policy", "", "slot policy preset: ssr, dagps, sgpack (empty keeps -mode's queue)")
		tenants   = fs.String("tenants", "", "per-tenant quotas: 'name[:cap=N][,weight=W][,p=P][;name2...]'")
		pprofAddr = fs.String("pprof", "", "serve net/http/pprof and expvar on this address (off when empty)")
		speeds    = fs.String("speeds", "", "per-node speed factors, comma separated ('2,1,1,0.5'); unlisted nodes run at 1")
		autoscale = fs.String("autoscale", "", "elastic node pool: 'min=N[,max=N][,interval=D][,warmup=D][,notice=D][,queue=N][,slowdown=F][,idle=N]'")
		preempt   = fs.String("preempt", "", "spot preemption injector: 'mtbp=D[,notice=D][,recover=D][,seed=N]'")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	routerImpl, err := shard.ParseRouter(*router)
	if err != nil {
		return err
	}
	cfg := service.Config{
		Nodes:           *nodes,
		SlotsPerNode:    *perNode,
		Shards:          *shards,
		Router:          routerImpl,
		Dilation:        *dilation,
		BaselineWorkers: *baseline,
		RecordTrace:     *traceOut != "",
		AuditCapacity:   *auditCap,
		Adaptive:        *adaptive,
	}
	if *lend <= 0 {
		cfg.Lending.Disabled = true
	} else {
		cfg.Lending.MaxLendFraction = *lend
	}
	if *tenants != "" {
		reg, err := tenant.ParseSpec(*tenants)
		if err != nil {
			return err
		}
		cfg.Tenants = reg
	}
	if *speeds != "" {
		cfg.NodeSpeeds, err = parseSpeeds(*speeds)
		if err != nil {
			return err
		}
	}
	if *autoscale != "" {
		cfg.Autoscale, err = parseAutoscale(*autoscale)
		if err != nil {
			return err
		}
	}
	var preemptor *faults.Preemptor
	if *preempt != "" {
		preemptor, err = parsePreempt(*preempt)
		if err != nil {
			return err
		}
	}
	applyMode := true
	if *policy != "" {
		pol, err := driver.ParsePolicy(*policy)
		if err != nil {
			return err
		}
		cfg.Driver.Policy = pol
		// With -policy and no explicit -mode, the policy's own reservation
		// mode governs (dagps/sgpack are work conserving, ssr reserves with
		// the paper defaults); an explicit -mode always wins over it.
		applyMode = false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "mode" {
				applyMode = true
			}
		})
	}
	if applyMode {
		switch *modeName {
		case "none":
			cfg.Driver.Mode = driver.ModeNone
		case "ssr":
			cfg.Driver.Mode = driver.ModeSSR
			cfg.Driver.SSR = core.Config{
				Enabled:             true,
				IsolationP:          *isolation,
				Alpha:               *alpha,
				PreReserveThreshold: *threshold,
				MitigateStragglers:  *mitigate,
			}
		case "timeout":
			cfg.Driver.Mode = driver.ModeTimeout
			cfg.Driver.Timeout = *timeout
		case "static":
			cfg.Driver.Mode = driver.ModeStatic
			cfg.Driver.StaticSlots = *static
			cfg.Driver.StaticMinPriority = 10
		default:
			return fmt.Errorf("unknown mode %q", *modeName)
		}
	}

	svc, err := service.New(cfg)
	if err != nil {
		return err
	}
	defer svc.Close()

	if preemptor != nil {
		for i := 0; i < svc.NumShards(); i++ {
			p := *preemptor
			p.Seed += int64(i) // independent preemption streams per shard
			if err := svc.CallShard(i, func(d *driver.Driver) { p.Install(d) }); err != nil {
				return err
			}
		}
	}

	if *pprofAddr != "" {
		// Opt-in debug endpoints on their own listener, kept off the API
		// mux: net/http/pprof and expvar register on DefaultServeMux.
		debugLn, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listen: %w", err)
		}
		debugSrv := &http.Server{Handler: http.DefaultServeMux}
		go func() { _ = debugSrv.Serve(debugLn) }()
		defer debugSrv.Close()
		fmt.Printf("ssrd: pprof/expvar on http://%s/debug/pprof/\n", debugLn.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Only the header read is bounded: ReadTimeout/WriteTimeout would cut
	// /v1/events streams and IdleTimeout races clients' idle keep-alives.
	srv := &http.Server{Handler: service.NewHandler(svc), ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Printf("ssrd: listening on %s (%s)\n", ln.Addr(), svc)
	if ready != nil {
		ready(ln.Addr().String())
	}

	select {
	case sig := <-sigC:
		fmt.Printf("ssrd: %v, draining (grace %v)\n", sig, *drain)
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	}

	// Drain: admission off (POST /v1/jobs answers 503), in-flight jobs get
	// the grace, stragglers are aborted. Reads and the event stream stay
	// up throughout so clients observe the abort events.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	aborted, err := svc.Drain(drainCtx)
	cancel()
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if aborted > 0 {
		fmt.Printf("ssrd: drain grace expired, aborted %d in-flight jobs\n", aborted)
	} else {
		fmt.Println("ssrd: drained clean")
	}

	// Closing the service closes the event bus, which ends every open SSE
	// stream — otherwise those connections would pin Shutdown until its
	// timeout.
	svc.Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	err = srv.Shutdown(shutCtx)
	cancel()
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if serr := <-serveErr; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		return serr
	}

	if *traceOut != "" {
		rec := svc.Trace()
		if err := rec.WriteFile(*traceOut); err != nil {
			return err
		}
		fmt.Printf("ssrd: flushed %d trace events to %s\n", rec.Len(), *traceOut)
	}
	return nil
}

// parseSpeeds parses the -speeds value: comma-separated positive floats.
func parseSpeeds(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("-speeds: bad factor %q", p)
		}
		out[i] = v
	}
	return out, nil
}

// kvPairs splits "k=v,k=v" and calls set for each pair.
func kvPairs(flagName, s string, set func(k, v string) error) error {
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok || v == "" {
			return fmt.Errorf("%s: %q is not key=value", flagName, kv)
		}
		if err := set(k, v); err != nil {
			return err
		}
	}
	return nil
}

// parseAutoscale parses the -autoscale value into an elastic-pool config;
// unspecified keys keep the lifecycle package defaults.
func parseAutoscale(s string) (*lifecycle.AutoscaleConfig, error) {
	var as lifecycle.AutoscaleConfig
	err := kvPairs("-autoscale", s, func(k, v string) error {
		var err error
		switch k {
		case "min":
			as.Min, err = strconv.Atoi(v)
		case "max":
			as.Max, err = strconv.Atoi(v)
		case "interval":
			as.Interval, err = time.ParseDuration(v)
		case "warmup":
			as.WarmUp, err = time.ParseDuration(v)
		case "notice":
			as.Notice, err = time.ParseDuration(v)
		case "queue":
			as.GrowQueue, err = strconv.Atoi(v)
		case "slowdown":
			as.GrowSlowdown, err = strconv.ParseFloat(v, 64)
		case "idle":
			as.ShrinkIdleTicks, err = strconv.Atoi(v)
		default:
			return fmt.Errorf("-autoscale: unknown key %q", k)
		}
		if err != nil {
			return fmt.Errorf("-autoscale: bad %s %q", k, v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &as, nil
}

// parsePreempt parses the -preempt value into a spot preemption injector.
func parsePreempt(s string) (*faults.Preemptor, error) {
	var p faults.Preemptor
	err := kvPairs("-preempt", s, func(k, v string) error {
		var err error
		switch k {
		case "mtbp":
			p.MTBP, err = time.ParseDuration(v)
		case "notice":
			p.Notice, err = time.ParseDuration(v)
		case "recover":
			p.Recover, err = time.ParseDuration(v)
		case "seed":
			p.Seed, err = strconv.ParseInt(v, 10, 64)
		default:
			return fmt.Errorf("-preempt: unknown key %q", k)
		}
		if err != nil {
			return fmt.Errorf("-preempt: bad %s %q", k, v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if p.MTBP <= 0 {
		return nil, fmt.Errorf("-preempt: mtbp must be positive")
	}
	return &p, nil
}
