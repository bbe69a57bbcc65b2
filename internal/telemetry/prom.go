package telemetry

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// promBucketLo / promBucketHi bound the log₂ buckets emitted as
// Prometheus `le` thresholds: 2^10 ns (≈1 µs) through 2^36 ns (≈69 s).
// Observations outside the range are still counted — the exposition is
// cumulative, so they fold into the first bucket / the +Inf bucket.
// 27 thresholds per histogram keeps the scrape body small while the
// full 64-bucket resolution stays available to the JSON endpoint.
const (
	promBucketLo = 10
	promBucketHi = 36
)

// Prom renders the Prometheus text exposition format (version 0.0.4).
// Metric families must be written as a unit (HELP, TYPE, then every
// sample); the writer tracks the first error and turns later calls
// into no-ops, so callers check Err once at the end.
type Prom struct {
	w   io.Writer
	err error
}

// NewProm returns a writer rendering to w.
func NewProm(w io.Writer) *Prom {
	return &Prom{w: w}
}

// Err returns the first write error.
func (p *Prom) Err() error {
	if p == nil {
		return nil
	}
	return p.err
}

func (p *Prom) printf(format string, args ...any) {
	if p == nil || p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// labelString renders k=v pairs as {k="v",...} ("" when empty).
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=\"%s\"", labels[i], escapeLabel(labels[i+1]))
	}
	b.WriteByte('}')
	return b.String()
}

// header emits the HELP and TYPE lines of one family.
func (p *Prom) header(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Counter emits a single-sample counter family.  labels are k,v pairs.
func (p *Prom) Counter(name, help string, value float64, labels ...string) {
	if p == nil {
		return
	}
	p.header(name, help, "counter")
	p.printf("%s%s %s\n", name, labelString(labels), formatPromValue(value))
}

// Gauge emits a single-sample gauge family.
func (p *Prom) Gauge(name, help string, value float64, labels ...string) {
	if p == nil {
		return
	}
	p.header(name, help, "gauge")
	p.printf("%s%s %s\n", name, labelString(labels), formatPromValue(value))
}

// CounterVec emits one counter family with one sample per label value:
// samples maps the value of labelKey to the sample value, emitted in
// sorted order so the exposition is byte-stable.
func (p *Prom) CounterVec(name, help, labelKey string, samples map[string]float64) {
	p.vec(name, help, "counter", labelKey, samples)
}

// GaugeVec is CounterVec with gauge type.
func (p *Prom) GaugeVec(name, help, labelKey string, samples map[string]float64) {
	p.vec(name, help, "gauge", labelKey, samples)
}

// GaugeVec2 emits one gauge family with two labels per sample: the
// map key is the two label values joined by a comma (neither may
// contain one).  Samples are emitted in sorted key order so the
// exposition is byte-stable.
func (p *Prom) GaugeVec2(name, help, key1, key2 string, samples map[string]float64) {
	if p == nil {
		return
	}
	p.header(name, help, "gauge")
	keys := make([]string, 0, len(samples))
	for k := range samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v1, v2, _ := strings.Cut(k, ",")
		p.printf("%s%s %s\n", name, labelString([]string{key1, v1, key2, v2}), formatPromValue(samples[k]))
	}
}

func (p *Prom) vec(name, help, typ, labelKey string, samples map[string]float64) {
	if p == nil {
		return
	}
	p.header(name, help, typ)
	keys := make([]string, 0, len(samples))
	for k := range samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p.printf("%s%s %s\n", name, labelString([]string{labelKey, k}), formatPromValue(samples[k]))
	}
}

// HistogramVec emits one histogram family with one series per name in
// snaps (label labelKey), in sorted order.  Buckets are cumulative
// `le` thresholds in seconds over the promBucketLo..promBucketHi log₂
// range plus +Inf, with _sum and _count per series.
func (p *Prom) HistogramVec(name, help, labelKey string, snaps map[string]Snapshot) {
	if p == nil {
		return
	}
	p.header(name, help, "histogram")
	keys := make([]string, 0, len(snaps))
	for k := range snaps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s := snaps[k]
		var cum int64
		b := 0
		for ; b <= promBucketHi; b++ {
			cum += s.Buckets[b]
			if b < promBucketLo {
				continue
			}
			le := float64(int64(1)<<uint(b+1)) / 1e9
			p.printf("%s_bucket{%s=\"%s\",le=\"%s\"} %d\n", name, labelKey, escapeLabel(k), trimFloat(le), cum)
		}
		p.printf("%s_bucket{%s=\"%s\",le=\"+Inf\"} %d\n", name, labelKey, escapeLabel(k), s.Count)
		p.printf("%s_sum{%s=\"%s\"} %s\n", name, labelKey, escapeLabel(k), trimFloat(float64(s.SumNs)/1e9))
		p.printf("%s_count{%s=\"%s\"} %d\n", name, labelKey, escapeLabel(k), s.Count)
	}
}

// trimFloat renders a float compactly ("0.001024", not scientific
// notation), keeping le thresholds stable and parseable.
func trimFloat(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

func formatPromValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	default:
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
}

var (
	promNameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// ValidateProm parses a text-exposition document and checks it is
// well-formed: metric and label names match the spec grammar, every
// sample value is a float, samples of a TYPE-declared family follow
// their declaration, and histogram families are internally consistent
// — per series, bucket counts are monotone non-decreasing as `le`
// rises, an le="+Inf" bucket exists, and _count equals it.  It is the
// assertion behind internal/server's TestMetriczPromExposition: if
// lalrd's /metricz?format=prom drifts out of the format, go test fails
// here rather than a scrape.
func ValidateProm(data []byte) error {
	type series struct {
		les    []float64
		counts []float64
		count  *float64
	}
	typeOf := map[string]string{}
	hist := map[string]*series{} // family + label-set → buckets
	for ln, line := range strings.Split(string(data), "\n") {
		lineNo := ln + 1
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) >= 3 && (f[1] == "HELP" || f[1] == "TYPE") {
				if !promNameRe.MatchString(f[2]) {
					return fmt.Errorf("line %d: invalid metric name %q", lineNo, f[2])
				}
				if f[1] == "TYPE" {
					if len(f) != 4 {
						return fmt.Errorf("line %d: malformed TYPE line", lineNo)
					}
					switch f[3] {
					case "counter", "gauge", "histogram", "summary", "untyped":
					default:
						return fmt.Errorf("line %d: unknown metric type %q", lineNo, f[3])
					}
					if _, dup := typeOf[f[2]]; dup {
						return fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, f[2])
					}
					typeOf[f[2]] = f[3]
				}
			}
			continue
		}
		name, labels, value, err := parsePromSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && typeOf[base] == "histogram" {
				family = base
				break
			}
		}
		if _, declared := typeOf[family]; !declared {
			return fmt.Errorf("line %d: sample %q precedes its TYPE declaration", lineNo, name)
		}
		if typeOf[family] != "histogram" {
			continue
		}
		// Group histogram samples per series (labels minus le).
		var rest []string
		le := math.NaN()
		for _, kv := range labels {
			if strings.HasPrefix(kv, `le="`) {
				v := strings.TrimSuffix(strings.TrimPrefix(kv, `le="`), `"`)
				if v == "+Inf" {
					le = math.Inf(1)
				} else if le, err = strconv.ParseFloat(v, 64); err != nil {
					return fmt.Errorf("line %d: bad le %q", lineNo, v)
				}
			} else {
				rest = append(rest, kv)
			}
		}
		key := family + "|" + strings.Join(rest, ",")
		sr := hist[key]
		if sr == nil {
			sr = &series{}
			hist[key] = sr
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			if math.IsNaN(le) {
				return fmt.Errorf("line %d: histogram bucket without le label", lineNo)
			}
			sr.les = append(sr.les, le)
			sr.counts = append(sr.counts, value)
		case strings.HasSuffix(name, "_count"):
			v := value
			sr.count = &v
		}
	}
	for key, sr := range hist {
		if len(sr.les) == 0 {
			return fmt.Errorf("histogram series %s has no buckets", key)
		}
		for i := 1; i < len(sr.les); i++ {
			if sr.les[i] <= sr.les[i-1] {
				return fmt.Errorf("histogram series %s: le thresholds not increasing", key)
			}
			if sr.counts[i] < sr.counts[i-1] {
				return fmt.Errorf("histogram series %s: bucket counts decrease at le=%v", key, sr.les[i])
			}
		}
		last := sr.les[len(sr.les)-1]
		if !math.IsInf(last, 1) {
			return fmt.Errorf("histogram series %s: missing le=\"+Inf\" bucket", key)
		}
		if sr.count == nil {
			return fmt.Errorf("histogram series %s: missing _count", key)
		}
		if *sr.count != sr.counts[len(sr.counts)-1] {
			return fmt.Errorf("histogram series %s: _count %v != +Inf bucket %v",
				key, *sr.count, sr.counts[len(sr.counts)-1])
		}
	}
	return nil
}

// parsePromSample splits one sample line into name, raw k="v" label
// strings, and value.
func parsePromSample(line string) (name string, labels []string, value float64, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.LastIndexByte(rest, '}')
		if j < i {
			return "", nil, 0, fmt.Errorf("unbalanced label braces")
		}
		for _, kv := range splitPromLabels(rest[i+1 : j]) {
			eq := strings.IndexByte(kv, '=')
			if eq < 0 || len(kv) < eq+3 || kv[eq+1] != '"' || kv[len(kv)-1] != '"' {
				return "", nil, 0, fmt.Errorf("malformed label %q", kv)
			}
			if !promLabelRe.MatchString(kv[:eq]) {
				return "", nil, 0, fmt.Errorf("invalid label name %q", kv[:eq])
			}
			labels = append(labels, kv)
		}
		rest = strings.TrimSpace(rest[j+1:])
	} else {
		f := strings.Fields(rest)
		if len(f) < 2 {
			return "", nil, 0, fmt.Errorf("malformed sample line")
		}
		name, rest = f[0], strings.Join(f[1:], " ")
	}
	if !promNameRe.MatchString(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	f := strings.Fields(rest)
	if len(f) < 1 || len(f) > 2 { // optional trailing timestamp
		return "", nil, 0, fmt.Errorf("malformed sample value in %q", line)
	}
	switch f[0] {
	case "+Inf":
		value = math.Inf(1)
	case "-Inf":
		value = math.Inf(-1)
	case "NaN":
		value = math.NaN()
	default:
		if value, err = strconv.ParseFloat(f[0], 64); err != nil {
			return "", nil, 0, fmt.Errorf("bad sample value %q", f[0])
		}
	}
	return name, labels, value, nil
}

// splitPromLabels splits `a="x",b="y"` on commas outside quotes.
func splitPromLabels(s string) []string {
	var out []string
	var b strings.Builder
	inQuote, escaped := false, false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case escaped:
			escaped = false
			b.WriteByte(c)
		case c == '\\' && inQuote:
			escaped = true
			b.WriteByte(c)
		case c == '"':
			inQuote = !inQuote
			b.WriteByte(c)
		case c == ',' && !inQuote:
			if b.Len() > 0 {
				out = append(out, b.String())
				b.Reset()
			}
		default:
			b.WriteByte(c)
		}
	}
	if b.Len() > 0 {
		out = append(out, b.String())
	}
	return out
}
