package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// traceHandler decorates a slog.Handler so every record logged with a
// context carrying a trace ID gets a "trace" attribute. This is what
// makes one tuning evaluation followable across the client retry loop,
// the server middleware chain and the worker lease lifecycle: all three
// log through handlers wrapped here, with the same ID in their
// contexts.
type traceHandler struct {
	slog.Handler
}

func (h traceHandler) Handle(ctx context.Context, r slog.Record) error {
	if id := TraceID(ctx); id != "" {
		r.AddAttrs(slog.String("trace", id))
	}
	return h.Handler.Handle(ctx, r)
}

func (h traceHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return traceHandler{Handler: h.Handler.WithAttrs(attrs)}
}

func (h traceHandler) WithGroup(name string) slog.Handler {
	return traceHandler{Handler: h.Handler.WithGroup(name)}
}

// withTraceAttrs wraps a handler so records carry the context's trace
// ID as a "trace" attribute.
func withTraceAttrs(h slog.Handler) slog.Handler { return traceHandler{Handler: h} }

// LogOptions configures NewLogger.
type LogOptions struct {
	// Level is the minimum level (default slog.LevelInfo).
	Level slog.Leveler
	// JSON selects JSON output; false means logfmt-style text.
	JSON bool
}

// NewLogger builds a trace-aware slog.Logger writing to w.
func NewLogger(w io.Writer, opts LogOptions) *slog.Logger {
	hopts := &slog.HandlerOptions{Level: opts.Level}
	var h slog.Handler
	if opts.JSON {
		h = slog.NewJSONHandler(w, hopts)
	} else {
		h = slog.NewTextHandler(w, hopts)
	}
	return slog.New(withTraceAttrs(h))
}

// ParseLevel maps the usual flag spellings ("debug", "info", "warn",
// "warning", "error", case-insensitive) to slog levels — shared by the
// daemons' -log-level flags.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return slog.LevelInfo, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
}

// discardHandler drops everything (slog.DiscardHandler exists only from
// Go 1.24; the module targets 1.22).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// Nop returns a logger that discards every record — the nil-safe
// default for components whose callers did not configure logging.
func Nop() *slog.Logger { return slog.New(discardHandler{}) }

// Or returns l when non-nil and a no-op logger otherwise, so components
// can log unconditionally.
func Or(l *slog.Logger) *slog.Logger {
	if l != nil {
		return l
	}
	return Nop()
}
