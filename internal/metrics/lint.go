package metrics

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// parsedSample is one decoded exposition line.
type parsedSample struct {
	name   string
	labels map[string]string
	value  float64
}

// Lint validates Prometheus text exposition output: every line is valid
// UTF-8 and parses, every sample's family is declared with # HELP and
// # TYPE before its first sample, no sample (name + label set) appears
// twice, and histogram families have monotone cumulative buckets whose
// +Inf bucket equals _count. Tests and the loadtest harness run it
// against GET /metrics so the endpoint cannot silently drift out of
// format.
func Lint(data []byte) error {
	types := map[string]string{} // family name -> TYPE
	helped := map[string]bool{}
	seen := map[string]bool{} // duplicate-sample detection
	var samples []parsedSample

	for ln, line := range strings.Split(string(data), "\n") {
		lineNo := ln + 1
		if !utf8.ValidString(line) {
			return fmt.Errorf("line %d: not valid UTF-8", lineNo)
		}
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, name, rest, ok := parseComment(line)
			if !ok {
				return fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			switch kind {
			case "HELP":
				helped[name] = true
			case "TYPE":
				if _, dup := types[name]; dup {
					return fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
				}
				switch rest {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: unknown TYPE %q for %s", lineNo, rest, name)
				}
				types[name] = rest
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		fam := familyName(s.name, types)
		if types[fam] == "" {
			return fmt.Errorf("line %d: sample %s has no preceding # TYPE", lineNo, s.name)
		}
		if !helped[fam] {
			return fmt.Errorf("line %d: sample %s has no # HELP", lineNo, s.name)
		}
		key := s.name + "\xff" + canonLabels(s.labels)
		if seen[key] {
			return fmt.Errorf("line %d: duplicate sample %s{%s}", lineNo, s.name, canonLabels(s.labels))
		}
		seen[key] = true
		samples = append(samples, s)
	}
	return lintHistograms(samples, types)
}

// Value parses exposition text and returns the sample with the given name
// whose labels exactly match want (nil matches an unlabeled sample). The
// second result reports whether it was found.
func Value(data []byte, name string, want map[string]string) (float64, bool) {
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSample(line)
		if err != nil || s.name != name {
			continue
		}
		if len(s.labels) != len(want) {
			continue
		}
		match := true
		for k, v := range want {
			if s.labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.value, true
		}
	}
	return 0, false
}

// familyName maps a sample name to its declared family: histogram series
// (_bucket/_sum/_count) belong to the base name's family.
func familyName(sample string, types map[string]string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(sample, suffix)
		if base != sample && types[base] == "histogram" {
			return base
		}
	}
	return sample
}

func parseComment(line string) (kind, name, rest string, ok bool) {
	for _, k := range []string{"# HELP ", "# TYPE "} {
		if strings.HasPrefix(line, k) {
			body := line[len(k):]
			name, rest, _ = strings.Cut(body, " ")
			if !validName.MatchString(name) {
				return "", "", "", false
			}
			return strings.TrimSpace(k[2:7]), name, rest, true
		}
	}
	// Other comments are legal and ignored.
	return "OTHER", "", "", true
}

func parseSample(line string) (parsedSample, error) {
	s := parsedSample{labels: map[string]string{}}
	rest := line
	brace := strings.IndexByte(rest, '{')
	space := strings.IndexByte(rest, ' ')
	if brace >= 0 && (space < 0 || brace < space) {
		s.name = rest[:brace]
		rest = rest[brace+1:]
		for {
			eq := strings.IndexByte(rest, '=')
			if eq < 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
				return s, fmt.Errorf("malformed labels in %q", line)
			}
			ln := rest[:eq]
			if !validName.MatchString(ln) {
				return s, fmt.Errorf("invalid label name %q", ln)
			}
			val, n, err := unquoteLabel(rest[eq+2:])
			if err != nil {
				return s, fmt.Errorf("label %s in %q: %w", ln, line, err)
			}
			s.labels[ln] = val
			rest = rest[eq+2+n:]
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
				continue
			}
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			return s, fmt.Errorf("malformed labels in %q", line)
		}
		rest = strings.TrimPrefix(rest, " ")
	} else {
		if space < 0 {
			return s, fmt.Errorf("no value in %q", line)
		}
		s.name = rest[:space]
		rest = rest[space+1:]
	}
	if !validName.MatchString(s.name) {
		return s, fmt.Errorf("invalid metric name %q", s.name)
	}
	// The value (and optionally a timestamp, which this renderer never
	// emits but the format allows).
	valStr, _, _ := strings.Cut(rest, " ")
	val, err := parseValue(valStr)
	if err != nil {
		return s, fmt.Errorf("bad value %q in %q", valStr, line)
	}
	s.value = val
	return s, nil
}

// unquoteLabel consumes an escaped label value up to its closing quote,
// returning the decoded value and how many input bytes were consumed
// (closing quote included).
func unquoteLabel(in string) (string, int, error) {
	var b strings.Builder
	for i := 0; i < len(in); i++ {
		switch in[i] {
		case '"':
			return b.String(), i + 1, nil
		case '\\':
			if i+1 >= len(in) {
				return "", 0, fmt.Errorf("dangling escape")
			}
			i++
			switch in[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", 0, fmt.Errorf("bad escape \\%c", in[i])
			}
		default:
			b.WriteByte(in[i])
		}
	}
	return "", 0, fmt.Errorf("unterminated label value")
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// canonLabels renders a label map sorted, for duplicate detection.
func canonLabels(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	return b.String()
}

// lintHistograms checks every histogram series group: cumulative bucket
// counts are monotone in le, the +Inf bucket exists, and _count matches it.
func lintHistograms(samples []parsedSample, types map[string]string) error {
	type group struct {
		buckets map[float64]float64 // le -> cumulative count
		count   float64
		hasCnt  bool
	}
	groups := map[string]*group{} // family + non-le labels -> group
	key := func(fam string, labels map[string]string) string {
		rest := map[string]string{}
		for k, v := range labels {
			if k != "le" {
				rest[k] = v
			}
		}
		return fam + "\xff" + canonLabels(rest)
	}
	for _, s := range samples {
		fam := familyName(s.name, types)
		if types[fam] != "histogram" {
			continue
		}
		k := key(fam, s.labels)
		g := groups[k]
		if g == nil {
			g = &group{buckets: map[float64]float64{}}
			groups[k] = g
		}
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			le, err := parseValue(s.labels["le"])
			if err != nil {
				return fmt.Errorf("histogram %s: bad le %q", fam, s.labels["le"])
			}
			g.buckets[le] = s.value
		case strings.HasSuffix(s.name, "_count"):
			g.count = s.value
			g.hasCnt = true
		}
	}
	for k, g := range groups {
		les := make([]float64, 0, len(g.buckets))
		for le := range g.buckets {
			les = append(les, le)
		}
		sort.Float64s(les)
		if len(les) == 0 || !math.IsInf(les[len(les)-1], 1) {
			return fmt.Errorf("histogram %s: missing +Inf bucket", k)
		}
		prev := math.Inf(-1)
		last := -1.0
		for _, le := range les {
			if le <= prev {
				return fmt.Errorf("histogram %s: le not ascending", k)
			}
			if g.buckets[le] < last {
				return fmt.Errorf("histogram %s: cumulative counts decrease at le=%g", k, le)
			}
			last = g.buckets[le]
			prev = le
		}
		if g.hasCnt && g.count != g.buckets[math.Inf(1)] {
			return fmt.Errorf("histogram %s: _count %g != +Inf bucket %g", k, g.count, g.buckets[math.Inf(1)])
		}
	}
	return nil
}
