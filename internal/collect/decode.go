package collect

// A byte-level decoder for the one wire shape a publisher POSTs to the
// loader, {"observations":[...]}. It replaces a reflection-driven
// encoding/json decode on the push path and gives the same value
// encoding/json gives for every body both accept (decode_test.go keeps
// encoding/json as its oracle). The body it accepts is journaled as
// received, so live ingest and journal replay share this one decoder.

import (
	"errors"
	"fmt"
	"strconv"
	"time"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"malgraph/internal/ecosys"
)

// maxDepth is encoding/json's nesting limit: a body nested deeper is
// refused by both decoders.
const maxDepth = 10000

// DecodeObservations decodes an observations push body,
// {"observations":[{source, coord{ecosystem,name,version}, observedAt,
// artifact{coord, description, files[{path,content}]}}, ...]}, into the
// observations encoding/json would decode from it: escapes as RFC 8259
// defines them, invalid UTF-8 and lone surrogates as U+FFFD, observedAt
// through (*time.Time).UnmarshalJSON, integers as strconv.ParseInt reads
// a number token, null and unknown members ignored, and a repeated member
// decoded over the first as encoding/json does. It narrows encoding/json
// twice: a member name must match exactly (one that matches a field only
// by case folding is refused), and the body must be exactly one value —
// anything but whitespace after it is refused, because the accepted body
// is journaled verbatim as the record of the push. Every error wraps
// ErrBadObservation.
func DecodeObservations(body []byte) ([]Observation, error) {
	d := decoder{data: body}
	var obs []Observation
	if err := d.body(&obs); err != nil {
		return nil, fmt.Errorf("%w: decode body: %v", ErrBadObservation, err)
	}
	return obs, nil
}

// decoder walks one body. buf is scratch for a string with escapes, so an
// unescaped string costs only the copy that makes it a Go string.
type decoder struct {
	data []byte
	pos  int
	buf  []byte
}

// Wire member names, per struct, in the order the structs declare them.
var (
	bodyNames  = []string{"observations"}
	obsNames   = []string{"source", "coord", "observedAt", "artifact"}
	coordNames = []string{"ecosystem", "name", "version"}
	artNames   = []string{"coord", "description", "files"}
	fileNames  = []string{"path", "content"}
)

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

func (d *decoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *decoder) peek() byte {
	d.ws()
	if d.pos == len(d.data) {
		return 0
	}
	return d.data[d.pos]
}

// body decodes the top-level value: the wrapper object, or null, which
// leaves *obs nil as encoding/json does.
func (d *decoder) body(obs *[]Observation) error {
	err := d.object(bodyNames, 1, func(key []byte) (bool, error) {
		if string(key) == "observations" {
			return true, array(d, obs, d.observation)
		}
		return false, nil
	})
	if err != nil {
		return err
	}
	if d.peek() != 0 || d.pos != len(d.data) {
		return d.errorf("data after the body's value")
	}
	return nil
}

// member reads the next member name of an object whose '{' (first) or
// previous member value was just consumed, up to and including its ':'.
// ok is false at the object's closing '}', which member consumes.
func (d *decoder) member(first bool) (key []byte, ok bool, err error) {
	c := d.peek()
	switch {
	case c == '}':
		d.pos++
		return nil, false, nil
	case !first && c == ',':
		d.pos++
		c = d.peek()
	case !first:
		return nil, false, d.errorf("expected ',' or '}' after an object member")
	}
	if c != '"' {
		return nil, false, d.errorf("expected a member name")
	}
	if key, err = d.str(); err != nil {
		return nil, false, err
	}
	if d.peek() != ':' {
		return nil, false, d.errorf("expected ':' after a member name")
	}
	d.pos++
	return key, true, nil
}

// unknown skips the value of a member no field names. A name that equals
// one of the object's field names only under encoding/json's case folding
// is refused: encoding/json would decode it into that field.
func (d *decoder) unknown(key []byte, names []string, depth int) error {
	folded := string(foldName(key))
	for _, name := range names {
		if folded == string(foldName([]byte(name))) {
			return d.errorf("member %q names %q only by case folding", key, name)
		}
	}
	return d.skip(depth)
}

// foldName is encoding/json's member-name fold: ASCII letters upper-cased,
// every other rune mapped through ToUpper(ToLower(r)).
func foldName(in []byte) []byte {
	out := make([]byte, 0, len(in))
	for i := 0; i < len(in); {
		if c := in[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			out = append(out, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(in[i:])
		out = utf8.AppendRune(out, unicode.ToUpper(unicode.ToLower(r)))
		i += n
	}
	return out
}

// grow makes s[i] addressable for the next array element, as encoding/json
// extends a slice it decodes into: i is len(s) or less, an element within
// the capacity keeps what the backing array holds, and one past it starts
// zero.
func grow[T any](s []T, i int) []T {
	switch {
	case i < len(s):
		return s
	case i < cap(s):
		return s[:i+1]
	}
	var zero T
	return append(s, zero)
}

// array decodes a JSON array into *s element by element with elem,
// reusing *s the way encoding/json does: null sets nil, an empty array a
// fresh empty slice, and a longer array decodes over the elements a
// repeated member left behind.
func array[T any](d *decoder, s *[]T, elem func(*T) error) error {
	switch d.peek() {
	case 'n':
		*s = nil
		return d.literal("null")
	case '[':
		d.pos++
	default:
		return d.errorf("expected an array")
	}
	v, i := *s, 0
	if d.peek() == ']' {
		d.pos++
	} else {
		for {
			v = grow(v, i)
			if err := elem(&v[i]); err != nil {
				return err
			}
			i++
			c := d.peek()
			if c != ',' && c != ']' {
				return d.errorf("expected ',' or ']' after an array element")
			}
			d.pos++
			if c == ']' {
				break
			}
		}
	}
	if i == 0 {
		v = []T{}
	}
	*s = v[:i]
	return nil
}

// object decodes a JSON object member by member with field, which reports
// whether it decoded the member; an unhandled member is skipped. A null
// object leaves the destination as it is.
func (d *decoder) object(names []string, depth int, field func(key []byte) (bool, error)) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
		d.pos++
	default:
		return d.errorf("expected an object")
	}
	for first := true; ; first = false {
		key, ok, err := d.member(first)
		if err != nil || !ok {
			return err
		}
		handled, err := field(key)
		if err == nil && !handled {
			err = d.unknown(key, names, depth)
		}
		if err != nil {
			return err
		}
	}
}

func (d *decoder) observation(o *Observation) error {
	return d.object(obsNames, 3, func(key []byte) (bool, error) {
		switch string(key) {
		case "source":
			return true, intValue(d, &o.Source)
		case "coord":
			return true, d.coord(&o.Coord, 4)
		case "observedAt":
			return true, d.timeValue(&o.ObservedAt, 3)
		case "artifact":
			return true, d.artifact(&o.Artifact)
		}
		return false, nil
	})
}

// coord decodes a coordinate object at the given depth.
func (d *decoder) coord(c *ecosys.Coord, depth int) error {
	return d.object(coordNames, depth, func(key []byte) (bool, error) {
		switch string(key) {
		case "ecosystem":
			return true, intValue(d, &c.Ecosystem)
		case "name":
			return true, d.stringValue(&c.Name)
		case "version":
			return true, d.stringValue(&c.Version)
		}
		return false, nil
	})
}

// artifact decodes the optional artifact: null clears the pointer, and an
// object decodes into the artifact already there, or a new one.
func (d *decoder) artifact(a **ecosys.Artifact) error {
	if d.peek() == 'n' {
		*a = nil
		return d.literal("null")
	}
	if d.peek() != '{' {
		return d.errorf("expected an object")
	}
	if *a == nil {
		*a = new(ecosys.Artifact)
	}
	art := *a
	return d.object(artNames, 4, func(key []byte) (bool, error) {
		switch string(key) {
		case "coord":
			return true, d.coord(&art.Coord, 5)
		case "description":
			return true, d.stringValue(&art.Description)
		case "files":
			return true, array(d, &art.Files, d.file)
		}
		return false, nil
	})
}

func (d *decoder) file(f *ecosys.File) error {
	return d.object(fileNames, 6, func(key []byte) (bool, error) {
		switch string(key) {
		case "path":
			return true, d.stringValue(&f.Path)
		case "content":
			return true, d.stringValue(&f.Content)
		}
		return false, nil
	})
}

// timeValue hands the raw value token, whatever its type, to
// (*time.Time).UnmarshalJSON, as encoding/json does for an Unmarshaler.
func (d *decoder) timeValue(t *time.Time, depth int) error {
	d.ws()
	start := d.pos
	if err := d.skip(depth); err != nil {
		return err
	}
	if err := t.UnmarshalJSON(d.data[start:d.pos]); err != nil {
		return d.errorf("observedAt: %v", err)
	}
	return nil
}

// stringValue decodes a JSON string; null leaves *s as it is.
func (d *decoder) stringValue(s *string) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '"':
		b, err := d.str()
		if err != nil {
			return err
		}
		*s = string(b)
		return nil
	}
	return d.errorf("expected a string")
}

// intValue decodes an integer member: a number token strconv.ParseInt
// reads in base 10; null leaves *v as it is.
func intValue[T ~int](d *decoder, v *T) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		start := d.pos
		if err := d.number(); err != nil {
			return err
		}
		n, err := strconv.ParseInt(string(d.data[start:d.pos]), 10, 64)
		if err != nil || int64(int(n)) != n {
			return d.errorf("number %s is not an integer", d.data[start:d.pos])
		}
		*v = T(n)
		return nil
	}
	return d.errorf("expected a number")
}

// literal consumes the literal word (true, false or null).
func (d *decoder) literal(word string) error {
	if len(d.data)-d.pos < len(word) || string(d.data[d.pos:d.pos+len(word)]) != word {
		return d.errorf("invalid literal, want %s", word)
	}
	d.pos += len(word)
	return nil
}

// number consumes one number token by the JSON grammar.
func (d *decoder) number() error {
	digits := func() int {
		n := 0
		for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
			d.pos++
			n++
		}
		return n
	}
	if d.data[d.pos] == '-' {
		d.pos++
	}
	switch {
	case d.pos < len(d.data) && d.data[d.pos] == '0':
		d.pos++
	case digits() == 0:
		return d.errorf("invalid number")
	}
	if d.pos < len(d.data) && d.data[d.pos] == '.' {
		d.pos++
		if digits() == 0 {
			return d.errorf("invalid number fraction")
		}
	}
	if d.pos < len(d.data) && (d.data[d.pos] == 'e' || d.data[d.pos] == 'E') {
		d.pos++
		if d.pos < len(d.data) && (d.data[d.pos] == '+' || d.data[d.pos] == '-') {
			d.pos++
		}
		if digits() == 0 {
			return d.errorf("invalid number exponent")
		}
	}
	return nil
}

// skip consumes one value of any shape, validating it as encoding/json's
// scanner does. depth is the number of containers open around the value.
func (d *decoder) skip(depth int) error {
	switch c := d.peek(); {
	case c == '{' || c == '[':
		if depth+1 > maxDepth {
			return d.errorf("exceeded max nesting depth")
		}
		d.pos++
		if c == '{' {
			for first := true; ; first = false {
				_, ok, err := d.member(first)
				if err != nil || !ok {
					return err
				}
				if err := d.skip(depth + 1); err != nil {
					return err
				}
			}
		}
		if d.peek() == ']' {
			d.pos++
			return nil
		}
		for {
			if err := d.skip(depth + 1); err != nil {
				return err
			}
			c := d.peek()
			if c != ',' && c != ']' {
				return d.errorf("expected ',' or ']' after an array element")
			}
			d.pos++
			if c == ']' {
				return nil
			}
		}
	case c == '"':
		_, err := d.str()
		return err
	case c == '-' || '0' <= c && c <= '9':
		return d.number()
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == 0 && d.pos == len(d.data):
		return d.errorf("unexpected end of body")
	}
	return d.errorf("invalid character %q looking for a value", d.data[d.pos])
}

// plain marks the bytes a string copies as they are: printable ASCII
// other than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

var errEnd = errors.New("unexpected end of body in a string")

// str consumes the string at d.pos and returns its decoded bytes: a slice
// of the body when it holds no escape and is valid UTF-8, else d.buf. The
// result is valid until the next call.
func (d *decoder) str() ([]byte, error) {
	data := d.data
	i := d.pos + 1
	for {
		for i < len(data) && plain[data[i]] {
			i++
		}
		if i == len(data) {
			return nil, errEnd
		}
		c := data[i]
		if c == '"' {
			s := data[d.pos+1 : i]
			d.pos = i + 1
			return s, nil
		}
		if c < utf8.RuneSelf {
			break // an escape or a control character
		}
		r, n := utf8.DecodeRune(data[i:])
		if r == utf8.RuneError && n == 1 {
			break
		}
		i += n
	}
	d.buf = append(d.buf[:0], data[d.pos+1:i]...)
	for {
		c := data[i]
		switch {
		case plain[c]:
			j := i + 1
			for j < len(data) && plain[data[j]] {
				j++
			}
			d.buf = append(d.buf, data[i:j]...)
			i = j
		case c == '"':
			d.pos = i + 1
			return d.buf, nil
		case c == '\\':
			var err error
			if i, err = d.escape(i); err != nil {
				return nil, err
			}
		case c < 0x20:
			d.pos = i
			return nil, d.errorf("invalid control character in a string")
		default:
			r, n := utf8.DecodeRune(data[i:])
			d.buf = utf8.AppendRune(d.buf, r) // invalid UTF-8 becomes U+FFFD
			i += n
		}
		if i == len(data) {
			return nil, errEnd
		}
	}
}

// escape decodes the escape sequence at data[i] into d.buf and returns the
// index past it. A \u escape of a lone surrogate decodes as U+FFFD.
func (d *decoder) escape(i int) (int, error) {
	data := d.data
	if i+1 >= len(data) {
		return i, errEnd
	}
	switch c := data[i+1]; c {
	case '"', '\\', '/':
		d.buf = append(d.buf, c)
	case 'b':
		d.buf = append(d.buf, '\b')
	case 'f':
		d.buf = append(d.buf, '\f')
	case 'n':
		d.buf = append(d.buf, '\n')
	case 'r':
		d.buf = append(d.buf, '\r')
	case 't':
		d.buf = append(d.buf, '\t')
	case 'u':
		r := hex4(data[i+2:])
		if r < 0 {
			d.pos = i
			return i, d.errorf("invalid \\u escape")
		}
		i += 6
		if utf16.IsSurrogate(r) {
			if i+1 < len(data) && data[i] == '\\' && data[i+1] == 'u' {
				if dec := utf16.DecodeRune(r, hex4(data[i+2:])); dec != unicode.ReplacementChar {
					d.buf = utf8.AppendRune(d.buf, dec)
					return i + 6, nil
				}
			}
			r = unicode.ReplacementChar
		}
		d.buf = utf8.AppendRune(d.buf, r)
		return i, nil
	default:
		d.pos = i
		return i, d.errorf("invalid escape %q in a string", c)
	}
	return i + 2, nil
}

// hex4 reads four hex digits, -1 when b does not start with them.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}
