// The /write ingestion endpoint: a line-protocol-ish text body, one point
// per line ("series t v", whitespace-separated; blank lines and #-comments
// skipped), batched per series and handed to Engine.WriteBatch. The body is
// bounded by http.MaxBytesReader, admission runs through the dedicated
// write gate (429 + Retry-After when shedding), engine backpressure maps to
// 429 and disk-full/read-only to 503 — the same typed-error surface /query
// has, so one retry loop serves both directions of the API.
//
// The body is parsed in place: it is read whole into a pooled buffer, lines
// and fields are split by index, numbers are parsed from the field bytes,
// and the points land in pooled buffers, so a request allocates one id
// string per series, not a few objects per line. The buffers go back to
// the pool once WriteBatch has returned, which never keeps the caller's
// slices.
package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"
	"unicode"
	"unicode/utf8"
	"unsafe"

	"m4lsm/internal/lsm"
	"m4lsm/internal/obs"
	"m4lsm/internal/series"
)

// maxWriteLineBytes bounds one line of the write body; anything longer is
// malformed input, not data. A line may hold maxWriteLineBytes-1 bytes
// before its newline.
const maxWriteLineBytes = 1 << 10

// maxPooledWriteBody is the largest body buffer a batch may keep when it
// goes back to the pool: larger ones are left to the collector, so one big
// request does not pin its buffers for good.
const maxPooledWriteBody = 1 << 20

var errLineTooLong = fmt.Errorf("line exceeds %d bytes", maxWriteLineBytes)

// writeBatch is one /write request's parse state. Every slice is reused
// across requests through writeBatches; a batch is owned by one request
// from getWriteBatch until release.
type writeBatch struct {
	body    bytes.Buffer     // the request body
	ids     map[string]int32 // series id → index into entries
	seq     []int32          // each point's series index, in body order
	flat    []series.Point   // the points in body order
	grouped []series.Point   // the points regrouped per series, backing entries
	counts  []int            // points per series
	entries []lsm.BatchEntry // one per series, in first-appearance order
	total   int              // points in entries
	resp    []byte           // the response body
}

var writeBatches = sync.Pool{New: func() any { return &writeBatch{ids: make(map[string]int32)} }}

func getWriteBatch() *writeBatch { return writeBatches.Get().(*writeBatch) }

// release returns b to the pool. The caller must be done with b.entries:
// their points live in b's buffers.
func (b *writeBatch) release() {
	if b.body.Cap() > maxPooledWriteBody {
		return
	}
	// Drop the id strings; the buffers' lengths are reset by the next parse.
	clear(b.ids)
	clear(b.entries)
	writeBatches.Put(b)
}

// readBody reads r to its end into b.body, growing the buffer to sizeHint
// up front when the request declared its length.
func (b *writeBatch) readBody(r io.Reader, sizeHint int64) error {
	b.body.Reset()
	if sizeHint > 0 {
		// bytes.Buffer.ReadFrom wants MinRead bytes free before each read,
		// the one that meets EOF included.
		b.body.Grow(int(sizeHint) + bytes.MinRead)
	}
	_, err := b.body.ReadFrom(r)
	return err
}

// parse turns b.body into b.entries and b.total, preserving
// first-appearance series order and per-series point order. Lines split on
// '\n' with one trailing '\r' dropped, fields on white space as
// strings.Fields splits them (Unicode spaces included), and a line whose
// first field starts with '#' is a comment. Strict by design: unknown field
// counts, unparsable numbers, NaN/Inf values and oversized lines all reject
// the whole body with a line-numbered error — ingestion is all-or-nothing
// per request, so a client never has to guess which half of its batch
// landed.
func (b *writeBatch) parse() error {
	clear(b.ids)
	b.seq, b.flat, b.counts, b.entries, b.total = b.seq[:0], b.flat[:0], b.counts[:0], b.entries[:0], 0
	var fields [3][]byte
	last := int32(-1)
	rest := b.body.Bytes()
	for line := 1; len(rest) > 0; line++ {
		text := rest
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			text, rest = rest[:i], rest[i+1:]
		} else {
			rest = nil
		}
		if len(text) >= maxWriteLineBytes {
			return errLineTooLong
		}
		if n := len(text); n > 0 && text[n-1] == '\r' {
			text = text[:n-1]
		}
		n := splitFields(text, &fields)
		if n == 0 || fields[0][0] == '#' {
			continue
		}
		if n != 3 {
			return fmt.Errorf("line %d: want \"series t v\", got %d fields", line, n)
		}
		t, ok := parseTimestamp(fields[1])
		if !ok {
			return fmt.Errorf("line %d: bad timestamp %q", line, fields[1])
		}
		v, err := strconv.ParseFloat(fieldString(fields[2]), 64)
		if err != nil {
			return fmt.Errorf("line %d: bad value %q", line, fields[2])
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("line %d: non-finite value %q", line, fields[2])
		}
		// Lines of one series usually come together: the previous line's
		// series is tried before the table.
		if last < 0 || string(fields[0]) != b.entries[last].SeriesID {
			si, seen := b.ids[string(fields[0])]
			if !seen {
				si = int32(len(b.entries))
				id := string(fields[0])
				b.ids[id] = si
				b.entries = append(b.entries, lsm.BatchEntry{SeriesID: id})
				b.counts = append(b.counts, 0)
			}
			last = si
		}
		b.counts[last]++
		b.seq = append(b.seq, last)
		b.flat = append(b.flat, series.Point{T: t, V: v})
	}
	if len(b.flat) == 0 {
		return errors.New("empty body: no points")
	}
	// Scatter the points into per-series runs of one buffer, each sized
	// exactly from its count.
	b.grouped = slices.Grow(b.grouped[:0], len(b.flat))[:len(b.flat)]
	off := 0
	for i, n := range b.counts {
		b.entries[i].Points = b.grouped[off : off : off+n]
		off += n
	}
	for i, si := range b.seq {
		ent := &b.entries[si]
		ent.Points = append(ent.Points, b.flat[i])
	}
	b.total = len(b.flat)
	return nil
}

// byteClass sorts the bytes of a line: 0 is an ASCII byte of a field, 1
// an ASCII space, 2 a byte of a multi-byte UTF-8 sequence (or an invalid
// one), whose rune decides.
var byteClass = func() (c [256]uint8) {
	for i := utf8.RuneSelf; i < len(c); i++ {
		c[i] = 2
	}
	for _, b := range "\t\n\v\f\r " {
		c[b] = 1
	}
	return c
}()

// spaceAt reports whether s[i:] starts with white space as unicode.IsSpace
// defines it, and how many bytes that rune takes. An invalid byte decodes
// to utf8.RuneError, which is not a space.
func spaceAt(s []byte, i int) (bool, int) {
	switch byteClass[s[i]] {
	case 0:
		return false, 1
	case 1:
		return true, 1
	}
	r, w := utf8.DecodeRune(s[i:])
	return unicode.IsSpace(r), w
}

// splitFields splits s around runs of white space exactly as strings.Fields
// does, storing the first three fields in out and returning how many
// fields s has.
func splitFields(s []byte, out *[3][]byte) int {
	n, i := 0, 0
	for i < len(s) {
		for i < len(s) {
			space, w := spaceAt(s, i)
			if !space {
				break
			}
			i += w
		}
		if i == len(s) {
			break
		}
		start := i
		for i < len(s) {
			if byteClass[s[i]] == 0 {
				i++
				continue
			}
			space, w := spaceAt(s, i)
			if space {
				break
			}
			i += w
		}
		if n < len(out) {
			out[n] = s[start:i]
		}
		n++
	}
	return n
}

// parseTimestamp parses a decimal int64 with an optional sign, accepting
// exactly what strconv.ParseInt(s, 10, 64) accepts.
func parseTimestamp(s []byte) (int64, bool) {
	neg := false
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		neg, s = s[0] == '-', s[1:]
	}
	if len(s) == 0 {
		return 0, false
	}
	// The magnitude is checked against 2^63 before each digit, so u never
	// wraps; -2^63 is the one magnitude only a negative number may have.
	var u uint64
	for _, c := range s {
		d := c - '0'
		if d > 9 || u > (1<<63)/10 {
			return 0, false
		}
		u = u*10 + uint64(d)
	}
	switch {
	case u > 1<<63, u == 1<<63 && !neg:
		return 0, false
	case neg:
		return -int64(u), true
	}
	return int64(u), true
}

// fieldString views a field of the body as a string without copying it.
// The view lives only as long as the parser's call: strconv's parsers keep
// nothing of their input (a NumError holds a copy).
func fieldString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// write ingests one batch. POST only; the response reports how many points
// and series landed — by the time it is written, every one of them is
// durable per the engine's ack ⇒ synced contract.
func (h *Handler) write(w http.ResponseWriter, r *http.Request) {
	ev := &obs.Event{When: time.Now(), Endpoint: "/write", RequestID: w.Header().Get("X-Request-ID")}
	defer h.finishEvent(w, ev)
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		httpError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	b := getWriteBatch()
	// WriteBatch does not keep the entries' slices, so the buffers are
	// free again once the handler returns.
	defer b.release()
	err := b.readBody(http.MaxBytesReader(w, r.Body, h.maxBody), min(r.ContentLength, h.maxBody))
	if err == nil {
		err = b.parse()
	}
	if err != nil {
		ev.Error = err.Error()
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			httpError(w, http.StatusBadRequest, fmt.Errorf("request body exceeds %d bytes", mbe.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, err)
		return
	}
	ev.PointsWritten = int64(b.total)
	ev.SeriesWritten = len(b.entries)
	if err := h.engine.WriteBatch(b.entries...); err != nil {
		ev.Error = err.Error()
		if errors.Is(err, lsm.ErrInvalidWrite) {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		if code, kind := mapQueryError(err); code != 0 {
			writeMappedError(w, code, kind, err)
			return
		}
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	// The JSON writeJSON would encode, without the map and reflection.
	resp := append(b.resp[:0], `{"points":`...)
	resp = strconv.AppendInt(resp, int64(b.total), 10)
	resp = append(resp, `,"series":`...)
	resp = strconv.AppendInt(resp, int64(len(b.entries)), 10)
	resp = append(resp, "}\n"...)
	b.resp = resp
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(resp); err != nil {
		slog.Default().Warn("m4server: write response", "err", err)
	}
}
