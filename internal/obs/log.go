package obs

import (
	"bytes"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Level orders log severities.
type Level int32

// Severity levels, least to most severe.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the lowercase level name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return "level(" + itoa(int64(l)) + ")"
	}
}

func itoa(n int64) string {
	b := make([]byte, 0, 8)
	if n < 0 {
		b = append(b, '-')
		n = -n
	}
	var digits [20]byte
	i := len(digits)
	for {
		i--
		digits[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	return string(append(b, digits[i:]...))
}

// Logger emits structured key=value lines to a sink. Loggers derived
// with With share the sink; a nil *Logger discards everything, so
// callers never need to guard log sites.
type Logger struct {
	sink  *sink
	attrs []Attr
}

// sink is the shared output half of a logger family.
type sink struct {
	mu    sync.Mutex
	w     io.Writer
	level atomic.Int32
	now   func() time.Time
}

// New returns a logger writing key=value lines at or above level to w.
func New(w io.Writer, level Level) *Logger {
	s := &sink{w: w, now: time.Now}
	s.level.Store(int32(level))
	return &Logger{sink: s}
}

// SetLevel changes the minimum emitted level.
func (l *Logger) SetLevel(level Level) {
	if l == nil || l.sink == nil {
		return
	}
	l.sink.level.Store(int32(level))
}

// Enabled reports whether a record at level would be emitted.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && l.sink != nil && int32(level) >= l.sink.level.Load()
}

// With returns a logger that prepends the given key/value pairs to
// every record. The receiver is unchanged.
func (l *Logger) With(kv ...any) *Logger {
	if l == nil || len(kv) == 0 {
		return l
	}
	attrs := make([]Attr, 0, len(l.attrs)+(len(kv)+1)/2)
	attrs = append(attrs, l.attrs...)
	attrs = append(attrs, attrsFromKV(kv)...)
	return &Logger{sink: l.sink, attrs: attrs}
}

// Debug logs at LevelDebug.
func (l *Logger) Debug(msg string, kv ...any) { l.Log(LevelDebug, msg, kv...) }

// Info logs at LevelInfo.
func (l *Logger) Info(msg string, kv ...any) { l.Log(LevelInfo, msg, kv...) }

// Warn logs at LevelWarn.
func (l *Logger) Warn(msg string, kv ...any) { l.Log(LevelWarn, msg, kv...) }

// Error logs at LevelError.
func (l *Logger) Error(msg string, kv ...any) { l.Log(LevelError, msg, kv...) }

// Log emits one record: time=… level=… msg=… followed by With-attrs and
// the given key/value pairs.
func (l *Logger) Log(level Level, msg string, kv ...any) {
	if !l.Enabled(level) {
		return
	}
	var b bytes.Buffer
	b.WriteString("time=")
	b.WriteString(l.sink.now().UTC().Format(time.RFC3339Nano))
	b.WriteByte(' ')
	b.WriteString("level=")
	b.WriteString(level.String())
	b.WriteString(" msg=")
	b.WriteString(formatValue(msg))
	writeAttrs(&b, l.attrs)
	writeAttrs(&b, attrsFromKV(kv))
	b.WriteByte('\n')
	l.sink.mu.Lock()
	defer l.sink.mu.Unlock()
	_, _ = l.sink.w.Write(b.Bytes())
}

func writeAttrs(b *bytes.Buffer, attrs []Attr) {
	for _, a := range attrs {
		b.WriteByte(' ')
		b.WriteString(a.Key)
		b.WriteByte('=')
		b.WriteString(formatValue(a.Value))
	}
}
