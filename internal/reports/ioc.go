package reports

import "strings"

// The IoC indicators of a report body are these three patterns, written as
// RE2 regular expressions (`\d` is ASCII [0-9], `\s` is [\t\n\f\r ], `\b` is
// an ASCII word boundary):
//
//	IP          \b(\d{1,3})\.(\d{1,3})\.(\d{1,3})[.\[\]]{1,3}(\d{1,3})\b
//	URL         h(?:xx|tt)ps?://[^\s"'<>\)]+
//	PowerShell  (?i)powershell\s+-[^\n]+
//
// A PowerShell IoC is a command line (powershell followed by flags), not
// merely prose mentioning PowerShell behaviour. Only the last separator of
// an IP may be defanged ("1.2.3[.]4").
//
// Each pattern has a hand-written scanner that reports exactly the matches
// regexp.FindAllString would: leftmost-first and non-overlapping, with `\b`
// judged on runes (every non-ASCII rune and every invalid byte is a non-word
// character), negated classes taking any rune outside the set (invalid bytes
// included), and `(?i)` simple case folding, under which ſ (U+017F) matches
// s. The tests keep the regexps as the oracle.

// Byte classes of the patterns, one bit each.
const (
	cDigit   = 1 << iota // \d
	cWord                // \w, the word characters of \b
	cIPSep               // [.\[\]]
	cSpace               // \s
	cURLStop             // [\s"'<>\)], the bytes a URL stops at
)

var iocClass = func() (t [256]uint8) {
	for c := 0; c < 256; c++ {
		if 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_' {
			t[c] |= cWord
		}
		if '0' <= c && c <= '9' {
			t[c] |= cDigit | cWord
		}
	}
	for _, c := range []byte(".[]") {
		t[c] |= cIPSep
	}
	for _, c := range []byte("\t\n\f\r ") {
		t[c] |= cSpace | cURLStop
	}
	for _, c := range []byte("\"'<>)") {
		t[c] |= cURLStop
	}
	return t
}()

// classRun returns the end of the run of class-c bytes at i, reading at
// most limit+1 of them: a result past i+limit means the run is longer.
func classRun(s string, i int, c uint8, limit int) int {
	j := i
	for j < len(s) && j-i <= limit && iocClass[s[j]]&c != 0 {
		j++
	}
	return j
}

// octet returns the end of a 1–3 digit run at i, or -1. The run must be
// whole: a fourth digit leaves no way for the next pattern element (a dot,
// a separator or `\b`) to match after any shorter prefix either.
func octet(s string, i int) int {
	j := classRun(s, i, cDigit, 3)
	if j == i || j-i > 3 {
		return -1
	}
	return j
}

// scanIPs reports the IP pattern's matches. The pattern admits at most one
// match per start, because every quantified run must be whole (see octet):
// the scan tries each start at a word boundary before a digit.
func scanIPs(s string, emit func(string)) {
	for i := 0; i < len(s); i++ {
		if iocClass[s[i]]&cDigit == 0 || i > 0 && iocClass[s[i-1]]&cWord != 0 {
			continue
		}
		if end := matchIP(s, i); end > 0 {
			emit(s[i:end])
			i = end - 1
		}
	}
}

// matchIP returns the end of the IP match starting at i, or -1.
func matchIP(s string, i int) int {
	j := i
	for range 2 {
		if j = octet(s, j); j < 0 || j == len(s) || s[j] != '.' {
			return -1
		}
		j++
	}
	if j = octet(s, j); j < 0 {
		return -1
	}
	k := classRun(s, j, cIPSep, 3)
	if k == j || k-j > 3 {
		return -1
	}
	if j = octet(s, k); j < 0 || j < len(s) && iocClass[s[j]]&cWord != 0 {
		return -1
	}
	return j
}

// scanURLs reports the URL pattern's matches. Every match holds "://" right
// after its scheme, so the scan visits each "://" in order and tries the
// two starts a scheme can put before it: "hxxps"/"https" five bytes back,
// else "hxxp"/"http" four bytes back (the two need different bytes before
// the colon, so at most one applies).
func scanURLs(s string, emit func(string)) {
	pos := 0 // end of the last match; the next one starts at or after it
	for from := 0; ; {
		q := strings.Index(s[from:], "://")
		if q < 0 {
			return
		}
		q += from
		from = q + 1
		var start int
		switch {
		case q-5 >= pos && s[q-1] == 's' && isScheme(s[q-5:q-1]):
			start = q - 5
		case q-4 >= pos && isScheme(s[q-4:q]):
			start = q - 4
		default:
			continue
		}
		end := q + 3
		for end < len(s) && iocClass[s[end]]&cURLStop == 0 {
			end++
		}
		if end == q+3 {
			continue // [^...]+ needs one byte
		}
		emit(s[start:end])
		pos, from = end, end
	}
}

// isScheme reports whether b is "hxxp" or "http".
func isScheme(b string) bool {
	return len(b) == 4 && b[0] == 'h' && b[3] == 'p' && (b[1:3] == "xx" || b[1:3] == "tt")
}

// scanPowerShell reports the PowerShell pattern's matches. After the
// keyword, `\s+` must stop at the '-' (any shorter run leaves a space
// where '-' is needed), and `[^\n]+` runs to the next newline.
func scanPowerShell(s string, emit func(string)) {
	for i := 0; i < len(s); i++ {
		if s[i]|0x20 != 'p' {
			continue
		}
		j := matchKeyword(s, i)
		if j < 0 {
			continue
		}
		w := classRun(s, j, cSpace, len(s))
		if w == j || w+1 >= len(s) || s[w] != '-' || s[w+1] == '\n' {
			continue
		}
		end := len(s)
		if nl := strings.IndexByte(s[w+1:], '\n'); nl >= 0 {
			end = w + 1 + nl
		}
		emit(s[i:end])
		i = end - 1
	}
}

// matchKeyword returns the end of a case-folded "powershell" at i, or -1.
// Under simple folding each ASCII letter matches its other case, and s
// also matches ſ (U+017F, "\xc5\xbf"); no other rune folds to a letter of
// the keyword.
func matchKeyword(s string, i int) int {
	for _, c := range []byte("powershell") {
		switch {
		case i < len(s) && s[i]|0x20 == c:
			i++
		case c == 's' && strings.HasPrefix(s[i:], "ſ"):
			i += len("ſ")
		default:
			return -1
		}
	}
	return i
}
