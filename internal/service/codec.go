package service

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// The service's wire codec. Request bodies are read ahead into a pooled
// buffer. A body of the shape the hot endpoints receive — a flat object
// of exact-case keys whose values are plain printable-ASCII strings or
// plain integers — is decoded by a strict scanner; every other body,
// and every body longer than the buffer, goes to encoding/json, which
// stays the reference: the scanner accepts a body only where
// encoding/json decodes it to the same value. Replies of the hot
// endpoints are appended with strconv where encoding/json would leave
// every string as it is, and marshalled otherwise, so the bytes on the
// wire are encoding/json's either way (FuzzServiceCodec checks both
// halves against it).

const (
	// bodyBufBytes is how much of a request body is read ahead: far
	// above any body the scanners take, and a longer one is decoded
	// from the read-ahead bytes and the rest of the stream.
	bodyBufBytes = 4 << 10
	// maxPooledBytes bounds the reply buffers kept for reuse, so one
	// reply with a long rejected list does not pin its buffer.
	maxPooledBytes = 64 << 10
)

var (
	bodyReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, bodyBufBytes) }}
	replyBufs   = sync.Pool{New: func() any {
		b := make([]byte, 0, 512)
		return &b
	}}
)

// decodeRequest reads r's body, at most maxBodyBytes of it, and decodes
// it into v: with scan when the body ends within the read-ahead
// (shorter than bodyBufBytes) and scan accepts it, else with
// decodeStrict. It answers 400 on any
// failure. scan must leave v untouched when it declines.
func decodeRequest[T any](w http.ResponseWriter, r *http.Request, v *T, scan func([]byte, *T) bool) error {
	br := bodyReaders.Get().(*bufio.Reader)
	br.Reset(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	defer func() {
		br.Reset(nil)
		bodyReaders.Put(br)
	}()
	if head, err := br.Peek(bodyBufBytes); err == io.EOF && scan(head, v) {
		return nil
	}
	// The decoder reads the peeked bytes first, then the stream on. A
	// read error that cut Peek short comes back at the same byte, as
	// MaxBytesReader repeats it.
	if err := decodeStrict(br, v); err != nil {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: "bad request body: " + err.Error()})
		return err
	}
	return nil
}

// decodeStrict reads exactly one JSON value (and trailing whitespace)
// from r into v, refusing unknown fields.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// advanceRequest is the advance endpoint's body. It stays an unnamed
// struct type, as encoding/json names it in its error messages.
type advanceRequest = struct {
	Steps int `json:"steps"`
}

// scanBatch decodes a batch body of only "tenant" and "random" members.
func scanBatch(b []byte, req *BatchRequest) bool {
	var v BatchRequest
	s := scanner{b: b}
	for s.next() {
		var ok bool
		switch string(s.key) {
		case "tenant":
			var t []byte
			if t, ok = s.str(); ok {
				v.Tenant = string(t)
			}
		case "random":
			v.Random, ok = s.int()
		}
		if !ok {
			return false
		}
	}
	if !s.end() {
		return false
	}
	*req = v
	return true
}

// scanAdvance decodes an advance body of only "steps" members.
func scanAdvance(b []byte, req *advanceRequest) bool {
	var v advanceRequest
	s := scanner{b: b}
	for s.next() {
		var ok bool
		if string(s.key) == "steps" {
			v.Steps, ok = s.int()
		}
		if !ok {
			return false
		}
	}
	if !s.end() {
		return false
	}
	*req = v
	return true
}

// scanner walks one flat JSON object. Keys and string values must be
// printable ASCII without escapes, and numbers plain integers of at most
// 18 digits, where encoding/json's value is the text itself; anything
// else stops the scan, and the body goes to decodeStrict. A repeated
// key overwrites the earlier value, as encoding/json does.
type scanner struct {
	b      []byte
	i      int
	key    []byte // the current member's key
	n      int    // members read
	closed bool   // the closing brace was read
}

// next reads up to the next member's value — the opening brace or a
// comma, the key and the colon — and reports whether it did. It returns
// false at the closing brace and on anything unexpected; end tells the
// two apart.
func (s *scanner) next() bool {
	if s.n == 0 {
		if !s.consume('{') {
			return false
		}
		if s.consume('}') {
			s.closed = true
			return false
		}
	} else if !s.consume(',') {
		s.closed = s.consume('}')
		return false
	}
	s.n++
	var ok bool
	if s.key, ok = s.str(); !ok {
		return false
	}
	return s.consume(':')
}

// end reports whether the object was closed and only whitespace
// follows it.
func (s *scanner) end() bool {
	s.space()
	return s.closed && s.i == len(s.b)
}

func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// consume skips whitespace, then c if it is next.
func (s *scanner) consume(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str reads a string of printable ASCII without escapes and returns
// its contents.
func (s *scanner) str() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	for start := s.i; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// int reads an integer with no leading zero, fraction or exponent. At
// most 18 digits always fit an int64; what follows is the caller's to
// check, so "1.0" stops the scan at the '.'.
func (s *scanner) int() (int, bool) {
	s.space()
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	start := s.i
	var n int64
	for ; s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9'; s.i++ {
		n = n*10 + int64(s.b[s.i]-'0')
	}
	digits := s.i - start
	if digits == 0 || digits > 18 || digits > 1 && s.b[start] == '0' {
		return 0, false
	}
	if neg {
		n = -n
	}
	if int64(int(n)) != n { // a 32-bit int
		return 0, false
	}
	return int(n), true
}

// plainString reports whether encoding/json writes s as it is between
// its quotes: printable ASCII other than the quote, the backslash and
// the HTML metacharacters it escapes.
func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

func appendMember(dst []byte, key string, n int) []byte {
	dst = append(dst, key...)
	return strconv.AppendInt(dst, int64(n), 10)
}

// appendJSON appends r as json.Marshal encodes it, and a newline.
func (r *BatchResult) appendJSON(dst []byte) []byte {
	plain := plainString(r.Topology) && plainString(r.Tenant)
	for _, e := range r.Rejected {
		plain = plain && plainString(e)
	}
	if !plain {
		body, _ := json.Marshal(r) // strings and ints always encode
		return append(append(dst, body...), '\n')
	}
	dst = appendString(append(dst, `{"topology":`...), r.Topology)
	dst = appendString(append(dst, `,"tenant":`...), r.Tenant)
	dst = appendMember(dst, `,"offered":`, r.Offered)
	dst = appendMember(dst, `,"admitted":`, r.Admitted)
	dst = appendMember(dst, `,"quota_dropped":`, r.QuotaDropped)
	for i, e := range r.Rejected {
		if i == 0 {
			dst = append(dst, `,"rejected":[`...)
		} else {
			dst = append(dst, ',')
		}
		dst = appendString(dst, e)
	}
	if len(r.Rejected) > 0 {
		dst = append(dst, ']')
	}
	dst = appendMember(dst, `,"step":`, r.Step)
	return append(dst, "}\n"...)
}

// appendJSON appends r as json.Marshal encodes it, and a newline.
func (r advanceReply) appendJSON(dst []byte) []byte {
	return append(appendMember(dst, `{"step":`, r.Step), "}\n"...)
}

// appendJSON appends r as json.Marshal encodes it, and a newline.
func (r flushReply) appendJSON(dst []byte) []byte {
	dst = strconv.AppendBool(append(dst, `{"flushed":`...), r.Flushed)
	return append(dst, "}\n"...)
}

// writeOK answers 200 with v's encoding, appended to a pooled buffer.
func writeOK[T interface{ appendJSON([]byte) []byte }](w http.ResponseWriter, v T) {
	bp := replyBufs.Get().(*[]byte)
	body := v.appendJSON((*bp)[:0])
	writeBody(w, http.StatusOK, body)
	if cap(body) <= maxPooledBytes {
		*bp = body[:0]
		replyBufs.Put(bp)
	}
}
