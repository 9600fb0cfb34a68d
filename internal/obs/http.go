package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// NewMux returns an http.Handler serving the observability surface:
//
//	/metrics          Prometheus text exposition of reg()
//	/trace/last       JSON array of tracer()'s recent query traces
//	                  (newest first; ?n=K limits the count)
//	/debug/pprof/*    the stdlib profiling handlers
//
// reg and tracer are called on every request, so the endpoints follow a
// backend that replaces its server (a follower re-bootstrapping from a
// snapshot). Either may return nil; the corresponding endpoint then
// serves an empty document.
func NewMux(reg func() *Registry, tracer func() *Tracer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if r := reg(); r != nil {
			_ = r.WritePrometheus(w)
		}
	})
	mux.HandleFunc("/trace/last", func(w http.ResponseWriter, r *http.Request) {
		n := 0
		if s := r.URL.Query().Get("n"); s != "" {
			if v, err := strconv.Atoi(s); err == nil {
				n = v
			}
		}
		traces := tracer().Last(n)
		if traces == nil {
			traces = []*QueryTrace{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(traces)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
