package service

import (
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"net/url"
	"strings"
	"time"

	"roadsocial/client"
)

// WithRequestID ensures every request carries an X-Request-ID: a client-
// supplied ID is kept (so callers can correlate with their own logs), a
// missing one is minted at this edge. The ID is set on the inbound request
// headers — from where the shard tier forwards it to leaf backends and the
// job manager stamps it into job records — and echoed on the response.
func WithRequestID(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(client.HeaderRequestID)
		if id == "" {
			id = NewRequestID()
			r.Header.Set(client.HeaderRequestID, id)
		}
		w.Header().Set(client.HeaderRequestID, id)
		h.ServeHTTP(w, r)
	})
}

// NewRequestID mints a 16-hex-digit random request ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on the supported platforms; a zero ID
		// beats a panic on an exotic one.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// RequestIDFrom reads the request ID off an HTTP request (empty when no
// middleware or client set one).
func RequestIDFrom(r *http.Request) string {
	return r.Header.Get(client.HeaderRequestID)
}

// AccessLog wraps h so every request emits exactly one structured record on
// logger when it terminates: method, route, dataset, status, outcome,
// duration, bytes, request ID, and whether the router failed it over.
// Liveness and scrape endpoints (/v1/healthz, /metrics) log at Debug so a
// probing load balancer cannot flood the log; everything else logs at Info.
func AccessLog(logger *slog.Logger, h http.Handler) http.Handler {
	if logger == nil {
		logger = slog.Default()
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r)

		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		outcome := OutcomeOK
		if status >= 400 {
			outcome = client.CodeForStatus(status)
		}
		level := slog.LevelInfo
		switch r.URL.Path {
		case "/v1/healthz", "/metrics":
			level = slog.LevelDebug
		}
		attrs := []any{
			"method", r.Method,
			"route", RouteLabel(r.Method, r.URL.Path),
			"path", r.URL.Path,
			"dataset", DatasetFromPath(r.URL.Path),
			"status", status,
			"outcome", outcome,
			"duration_ms", float64(time.Since(start).Microseconds()) / 1000,
			"bytes", sw.bytes,
			"request_id", RequestIDFrom(r),
		}
		if shard := sw.Header().Get(client.HeaderFailedOver); shard != "" {
			attrs = append(attrs, "failed_over", shard)
		}
		logger.Log(r.Context(), level, "request", attrs...)
	})
}

// statusWriter captures the terminal status and body size of a response.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer when it streams (snapshot
// exports through a router).
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// RouteLabel names the route class of a request path for logs and metrics —
// a bounded label ("search", "ktcore", "snapshot", ...), never the raw path
// (which embeds dataset names and job IDs).
func RouteLabel(method, path string) string {
	switch {
	case path == "/v1/batch":
		return "batch"
	case path == "/v1/stats":
		return "stats"
	case path == "/v1/healthz":
		return "healthz"
	case path == "/metrics":
		return "metrics"
	case path == "/v1/jobs" || strings.HasPrefix(path, "/v1/jobs/"):
		return "jobs"
	case strings.HasPrefix(path, "/v1/datasets/"):
		rest := path[len("/v1/datasets/"):]
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			switch sub := rest[i+1:]; {
			case sub == "search" || sub == "ktcore" || sub == "snapshot" ||
				sub == "hotkeys" || sub == "move" || sub == "edges":
				return sub
			case sub == "queries" || strings.HasPrefix(sub, "queries/"):
				if strings.HasSuffix(sub, "/events") {
					return "events"
				}
				return "queries"
			}
			return "other"
		}
		switch method {
		case http.MethodDelete:
			return "delete"
		default:
			return "create"
		}
	default:
		return "other"
	}
}

// DatasetFromPath extracts the dataset name from a dataset-scoped path
// ("/v1/datasets/{name}[/...]"); other paths answer "".
func DatasetFromPath(path string) string {
	const prefix = "/v1/datasets/"
	if !strings.HasPrefix(path, prefix) {
		return ""
	}
	name := path[len(prefix):]
	if i := strings.IndexByte(name, '/'); i >= 0 {
		name = name[:i]
	}
	if unescaped, err := url.PathUnescape(name); err == nil {
		name = unescaped
	}
	return name
}
