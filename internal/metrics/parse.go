package metrics

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed exposition line.
type Sample struct {
	// Name is the full sample name, including any _bucket/_sum/_count
	// histogram suffix.
	Name   string
	Labels map[string]string
	Value  float64
}

// Scrape is a parsed text exposition: the samples in document order
// plus the HELP/TYPE metadata per family.
type Scrape struct {
	Samples []Sample
	Help    map[string]string
	Type    map[string]Kind
}

// Value returns the first sample matching name whose labels are a
// superset of want (nil matches anything).
func (s *Scrape) Value(name string, want map[string]string) (float64, bool) {
	for _, sm := range s.Samples {
		if sm.Name != name {
			continue
		}
		match := true
		for k, v := range want {
			if sm.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return sm.Value, true
		}
	}
	return 0, false
}

// Sum adds every sample of name across label sets (how a scraper folds
// a per-backend family into a fleet total).
func (s *Scrape) Sum(name string) float64 {
	total := 0.0
	for _, sm := range s.Samples {
		if sm.Name == name {
			total += sm.Value
		}
	}
	return total
}

// Parse reads a text exposition. It is strict about line shape (Lint
// builds on it) but does not validate cross-line family structure.
func Parse(data []byte) (*Scrape, error) {
	s := &Scrape{Help: map[string]string{}, Type: map[string]Kind{}}
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := s.parseComment(line); err != nil {
				return nil, fmt.Errorf("metrics: line %d: %w", ln+1, err)
			}
			continue
		}
		sm, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: %w", ln+1, err)
		}
		s.Samples = append(s.Samples, sm)
	}
	return s, nil
}

func (s *Scrape) parseComment(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 {
			return fmt.Errorf("malformed HELP line %q", line)
		}
		help := ""
		if len(fields) == 4 {
			help = fields[3]
		}
		s.Help[fields[2]] = help
	case "TYPE":
		if len(fields) != 4 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		name, kind := fields[2], Kind(fields[3])
		switch kind {
		case KindCounter, KindGauge, KindHistogram:
		default:
			return fmt.Errorf("unknown TYPE %q for %q", kind, name)
		}
		if _, dup := s.Type[name]; dup {
			return fmt.Errorf("duplicate TYPE line for %q", name)
		}
		s.Type[name] = kind
	}
	return nil
}

func parseSample(line string) (Sample, error) {
	sm := Sample{Labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return sm, fmt.Errorf("malformed sample %q", line)
	}
	sm.Name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		end, err := parseLabels(rest, sm.Labels)
		if err != nil {
			return sm, fmt.Errorf("%w in %q", err, line)
		}
		rest = rest[end:]
	}
	rest = strings.TrimSpace(rest)
	// Ignore an optional trailing timestamp.
	if j := strings.IndexByte(rest, ' '); j >= 0 {
		rest = rest[:j]
	}
	v, err := parseValue(rest)
	if err != nil {
		return sm, fmt.Errorf("bad value %q in %q", rest, line)
	}
	sm.Value = v
	return sm, nil
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

// parseLabels parses a {k="v",...} block starting at s[0]=='{',
// returning the index just past the closing brace.
func parseLabels(s string, into map[string]string) (int, error) {
	i := 1
	for {
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label block")
		}
		if s[i] == '}' {
			return i + 1, nil
		}
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return 0, fmt.Errorf("label without '='")
		}
		name := s[i : i+eq]
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			return 0, fmt.Errorf("unquoted label value")
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				return 0, fmt.Errorf("unterminated label value")
			}
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					return 0, fmt.Errorf("dangling escape")
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return 0, fmt.Errorf("unknown escape \\%c", s[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		into[name] = val.String()
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}

// baseName strips a histogram sample suffix so the sample maps to its
// family name ("x_bucket" → "x") — but only when the suffixed family
// is actually declared as a histogram.
func (s *Scrape) baseName(name string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok {
			if s.Type[base] == KindHistogram {
				return base
			}
		}
	}
	return name
}

// Lint validates an exposition document end to end: every sample line
// parses, every family has HELP and TYPE lines, names match
// [a-z_][a-z0-9_]*, label names are valid and never "le" outside
// histogram buckets, and every histogram family exposes a +Inf bucket,
// _sum, and _count with non-decreasing cumulative bucket counts. This
// is the gate the golden tests and the bench/ harness's scrapes both run.
func Lint(data []byte) error {
	s, err := Parse(data)
	if err != nil {
		return err
	}
	type histState struct {
		sawInf, sawSum, sawCount bool
	}
	hists := map[string]*histState{} // keyed by family + non-le labels
	lastCum := map[string]float64{}

	for _, sm := range s.Samples {
		base := s.baseName(sm.Name)
		if !validName(base) {
			return fmt.Errorf("metrics: invalid metric name %q", base)
		}
		if _, ok := s.Type[base]; !ok {
			return fmt.Errorf("metrics: sample %q has no TYPE line", sm.Name)
		}
		if _, ok := s.Help[base]; !ok {
			return fmt.Errorf("metrics: sample %q has no HELP line", sm.Name)
		}
		isBucket := s.Type[base] == KindHistogram && strings.HasSuffix(sm.Name, "_bucket")
		for l := range sm.Labels {
			if l == "le" {
				if !isBucket {
					return fmt.Errorf("metrics: reserved label \"le\" on non-bucket sample %q", sm.Name)
				}
				continue
			}
			if !validName(l) {
				return fmt.Errorf("metrics: invalid label name %q on %q", l, sm.Name)
			}
		}
		if s.Type[base] != KindHistogram {
			continue
		}
		key := base + "\xff" + nonLeKey(sm.Labels)
		st := hists[key]
		if st == nil {
			st = &histState{}
			hists[key] = st
		}
		switch {
		case strings.HasSuffix(sm.Name, "_bucket"):
			le, ok := sm.Labels["le"]
			if !ok {
				return fmt.Errorf("metrics: bucket sample %q without le label", sm.Name)
			}
			if le == "+Inf" {
				st.sawInf = true
			}
			if prev, seen := lastCum[key]; seen && sm.Value < prev {
				return fmt.Errorf("metrics: histogram %q bucket counts decrease at le=%s", base, le)
			}
			lastCum[key] = sm.Value
		case strings.HasSuffix(sm.Name, "_sum"):
			st.sawSum = true
		case strings.HasSuffix(sm.Name, "_count"):
			st.sawCount = true
		default:
			return fmt.Errorf("metrics: histogram family %q has a bare sample %q", base, sm.Name)
		}
	}
	for key, st := range hists {
		base := key[:strings.IndexByte(key, '\xff')]
		if !st.sawInf {
			return fmt.Errorf("metrics: histogram %q missing +Inf bucket", base)
		}
		if !st.sawSum {
			return fmt.Errorf("metrics: histogram %q missing _sum", base)
		}
		if !st.sawCount {
			return fmt.Errorf("metrics: histogram %q missing _count", base)
		}
	}
	return nil
}

func nonLeKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
		b.WriteByte(';')
	}
	return b.String()
}
