package obs

import (
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Admin is a running admin HTTP endpoint. Close shuts it down.
type Admin struct {
	srv *http.Server
	lis net.Listener
}

// TraceDumper exports retained request traces as JSON — implemented by
// *reqtrace.Recorder. An interface here because the recorder package
// imports obs (its spans feed a histogram family), so obs cannot import it.
type TraceDumper interface {
	WriteJSON(w io.Writer) error
}

// AdminOptions configures ServeAdminOpts. Both fields are optional.
type AdminOptions struct {
	// Registry backs /metrics; nil serves an empty (but valid) exposition.
	Registry *Registry
	// Traces backs /debug/traces; nil serves an empty dump.
	Traces TraceDumper
}

// ServeAdmin starts an admin HTTP server on addr exposing reg; see
// ServeAdminOpts for the route list.
func ServeAdmin(addr string, reg *Registry) (*Admin, error) {
	return ServeAdminOpts(addr, AdminOptions{Registry: reg})
}

// getOnly wraps a route handler with the admin endpoint's method and header
// discipline: every route is read-only (non-GET gets 405 with an Allow
// header), and routes with a known payload type set Content-Type
// explicitly rather than leaning on net/http's sniffer (which misreads
// a Prometheus exposition starting with '#' or an expvar JSON body as
// text/plain without charset). contentType "" leaves the header to the
// handler (the pprof handlers set their own).
func getOnly(contentType string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if contentType != "" {
			w.Header().Set("Content-Type", contentType)
		}
		h(w, r)
	}
}

// ServeAdminOpts starts an admin HTTP server on addr (host:port; use
// ":0" to pick a free port) exposing:
//
//	/metrics       Prometheus text-format exposition of the registry
//	/debug/vars    expvar JSON (Go runtime memstats, cmdline)
//	/debug/traces  flight-recorder trace dump (JSON; see reqtrace)
//	/debug/pprof   live profiling (heap, goroutine, 30s CPU profile, trace)
//	/              a plain-text index of the above
//
// Every route answers GET only (405 otherwise — this includes
// /debug/pprof/symbol, whose upstream handler also accepts POST; the
// admin endpoint is strictly read-only). The server runs until Close.
// Note the CPU profiler is process-global: /debug/pprof/profile fails
// while a file CPU profile (harpcli -cpuprofile) is running, and vice
// versa.
func ServeAdminOpts(addr string, opts AdminOptions) (*Admin, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: admin listen on %s: %w", addr, err)
	}
	reg := opts.Registry
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", getOnly("text/plain; version=0.0.4; charset=utf-8",
		func(w http.ResponseWriter, _ *http.Request) {
			_ = reg.WritePrometheus(w)
		}))
	mux.HandleFunc("/debug/vars", getOnly("application/json; charset=utf-8",
		expvar.Handler().ServeHTTP))
	mux.HandleFunc("/debug/traces", getOnly("application/json; charset=utf-8",
		func(w http.ResponseWriter, _ *http.Request) {
			if opts.Traces == nil {
				fmt.Fprintln(w, `{"retained":0,"dropped":0,"traces":[]}`)
				return
			}
			_ = opts.Traces.WriteJSON(w)
		}))
	mux.HandleFunc("/debug/pprof/", getOnly("", pprof.Index))
	mux.HandleFunc("/debug/pprof/cmdline", getOnly("", pprof.Cmdline))
	mux.HandleFunc("/debug/pprof/profile", getOnly("", pprof.Profile))
	mux.HandleFunc("/debug/pprof/symbol", getOnly("", pprof.Symbol))
	mux.HandleFunc("/debug/pprof/trace", getOnly("", pprof.Trace))
	mux.HandleFunc("/", getOnly("text/plain; charset=utf-8",
		func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/" {
				// The header is already set, but NotFound overrides it.
				http.NotFound(w, r)
				return
			}
			fmt.Fprintln(w, "harpte admin endpoint")
			fmt.Fprintln(w, "  /metrics       Prometheus text exposition")
			fmt.Fprintln(w, "  /debug/vars    expvar JSON")
			fmt.Fprintln(w, "  /debug/traces  flight-recorder trace dump (JSON)")
			fmt.Fprintln(w, "  /debug/pprof   pprof profiles")
		}))
	a := &Admin{
		srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		lis: lis,
	}
	go func() {
		// ErrServerClosed is the normal Close path; any other error means
		// the listener died, which the owner notices by failed scrapes.
		_ = a.srv.Serve(lis)
	}()
	return a, nil
}

// Addr returns the bound listen address (useful with ":0").
func (a *Admin) Addr() string { return a.lis.Addr().String() }

// Close shuts the admin server down immediately.
func (a *Admin) Close() error { return a.srv.Close() }
