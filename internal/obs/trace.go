package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
)

// TraceHeader is the HTTP header that carries the trace ID between the
// crowd client and server. The server honours an incoming value (so a
// tuning run's uploads, queries and task operations share one trace)
// and echoes the assigned ID on every response.
const TraceHeader = "X-Trace-ID"

// maxTraceIDLen bounds accepted trace IDs; anything longer (or with
// exotic characters) is replaced server-side — the header is untrusted
// input.
const maxTraceIDLen = 64

type traceKey struct{}

// NewTraceID returns a fresh 128-bit trace ID as 32 hex characters.
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand failure is unrecoverable
	}
	return hex.EncodeToString(b[:])
}

// WithTrace returns ctx carrying the trace ID.
func WithTrace(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, id)
}

// TraceID returns the trace ID carried by ctx, or "".
func TraceID(ctx context.Context) string {
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}

// ValidTraceID reports whether an externally supplied trace ID is safe
// to adopt: non-empty, bounded length, and only unreserved URL/log
// characters (hex digits, letters, digits, '-', '_', '.').
func ValidTraceID(id string) bool {
	if id == "" || len(id) > maxTraceIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}
