package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// Check is a liveness or readiness probe: nil means healthy, an error
// is rendered into the 503 body so the operator sees *why* from curl.
type Check func() error

// MuxChecks returns a mux exposing the registry:
//
//	/metrics       Prometheus text format
//	/healthz       liveness probe ("ok", or 503 with the failing check's error)
//	/readyz        readiness probe (same contract as /healthz)
//	/debug/pprof/  the standard Go profiler endpoints
//
// Daemons mount additional debug endpoints on the mux before serving:
// the Central adds /debug/flight (flight-recorder ring + dumps, the
// scheduler's reallocations included) and /debug/sessions (per-node
// session state).
//
// /healthz serves live and /readyz serves ready (a nil Check always
// passes). The split follows the usual load-balancer contract —
// liveness says "don't restart me", readiness says "send me traffic": a
// Conv node is live from startup but not ready until it holds weights
// and a Central session; a Central flips /healthz to 503 while any SLO
// objective is in breach so a balancer drains it.
func MuxChecks(r *Registry, live, ready Check) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", probeHandler(live))
	mux.HandleFunc("/readyz", probeHandler(ready))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// probeHandler renders one Check as a probe endpoint.
func probeHandler(check Check) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if check != nil {
			if err := check(); err != nil {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintln(w, err.Error())
				return
			}
		}
		fmt.Fprintln(w, "ok")
	}
}

// ServeMux serves h (typically MuxChecks plus extra debug endpoints) on
// addr in a background goroutine and returns the server for shutdown and
// the bound listener address (useful with ":0"). The server's terminal
// error is ignored: metrics are best-effort and must never take the
// inference path down.
func ServeMux(addr string, h http.Handler) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr(), nil
}
