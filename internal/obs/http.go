package obs

import (
	"expvar"
	"net/http"
	"net/http/pprof"
)

// PromHandler serves the registry in the Prometheus text exposition
// format.
func PromHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := WriteProm(w, reg.Snapshot()); err != nil {
			// Client went away mid-write; nothing recoverable.
			return
		}
	})
}

// RegisterDebug mounts the standard Go debug surface on mux:
// /debug/pprof/* (profiles, goroutine dumps) and /debug/vars (expvar).
// This is the "debug mux" used by the serving commands; it deliberately
// avoids the package-level http.DefaultServeMux side effects of blank-
// importing net/http/pprof.
func RegisterDebug(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
}
