package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Prometheus text exposition (text/plain; version=0.0.4) for Registry.
//
// WritePrometheus is the registry's one exposition, served on /metrics
// and written by streamdemo's final dump: every metric with `# HELP`/`# TYPE`
// headers, names sanitized to the Prometheus grammar, and support for
// labeled series registered under names of the form
// `family{key="value",...}` (label values are escaped per the format
// spec). Counters registered via Registry.Counter are typed `counter`,
// gauges (which shadow same-named counters, as in Each) are `gauge`.

// Help attaches help text to a metric family, emitted as a `# HELP`
// line by WritePrometheus. The name is the family name — for labeled
// series, the part before '{'.
func (r *Registry) Help(name, text string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.help == nil {
		r.help = make(map[string]string)
	}
	r.help[name] = text
}

// promSanitize maps an arbitrary metric or label name onto the
// Prometheus name grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func promSanitize(name string) string {
	if name == "" {
		return "_"
	}
	var b []byte
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if ok {
			if b != nil {
				b = append(b, c)
			}
			continue
		}
		if b == nil {
			b = append([]byte{}, name[:i]...)
		}
		b = append(b, '_')
	}
	if b == nil {
		return name
	}
	return string(b)
}

// promEscapeLabel escapes a label value per the exposition format:
// backslash, double-quote and newline.
func promEscapeLabel(v string) string {
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// splitPromName splits a registered name into its family and a
// re-serialized, escaped label block. Names without '{' have no labels.
// A malformed label block is not parsed — the whole name is sanitized
// into the family and the series is emitted unlabeled.
func splitPromName(name string) (family, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return promSanitize(name), ""
	}
	body, ok := strings.CutSuffix(name[i+1:], "}")
	if !ok {
		return promSanitize(name), ""
	}
	var parts []string
	for _, pair := range splitLabelPairs(body) {
		k, v, ok := strings.Cut(pair, "=")
		if !ok {
			return promSanitize(name), ""
		}
		v = strings.TrimPrefix(v, `"`)
		v = strings.TrimSuffix(v, `"`)
		// promEscapeLabel is the full exposition-format escaping; %q would
		// escape a second time
		parts = append(parts, fmt.Sprintf(`%s="%s"`, promSanitize(k), promEscapeLabel(v)))
	}
	if len(parts) == 0 {
		return promSanitize(name[:i]), ""
	}
	return promSanitize(name[:i]), "{" + strings.Join(parts, ",") + "}"
}

// splitLabelPairs splits `k="v",k2="v2"` on commas outside quotes.
func splitLabelPairs(s string) []string {
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

type promSeries struct {
	labels string
	value  func() int64
}

// WritePrometheus writes the registry in the Prometheus text format:
// families sorted by name, one `# HELP` (when set via Help) and one
// `# TYPE` line per family, then its series.
func (r *Registry) WritePrometheus(w io.Writer) (int64, error) {
	type family struct {
		kind   string // "counter" | "gauge"
		help   string
		series []promSeries
	}
	r.mu.Lock()
	fams := make(map[string]*family)
	add := func(name, kind string, value func() int64) {
		fam, labels := splitPromName(name)
		f := fams[fam]
		if f == nil {
			f = &family{kind: kind}
			fams[fam] = f
		}
		// a gauge anywhere in the family promotes it: mixed families are
		// scraped as gauges, matching the gauge-shadows-counter rule
		if kind == "gauge" {
			f.kind = "gauge"
		}
		f.series = append(f.series, promSeries{labels: labels, value: value})
	}
	shadowed := make(map[string]bool, len(r.gauges))
	for n := range r.gauges {
		shadowed[n] = true
	}
	for n, c := range r.counters {
		if shadowed[n] {
			continue
		}
		add(n, "counter", c.Value)
	}
	for n, g := range r.gauges {
		add(n, "gauge", g)
	}
	for n, h := range r.help {
		fam, _ := splitPromName(n)
		if f := fams[fam]; f != nil {
			f.help = h
		}
	}
	r.mu.Unlock()

	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)

	var total int64
	var werr error
	emit := func(format string, args ...any) {
		if werr != nil {
			return
		}
		n, err := fmt.Fprintf(w, format, args...)
		total += int64(n)
		werr = err
	}
	for _, n := range names {
		f := fams[n]
		if f.help != "" {
			emit("# HELP %s %s\n", n, strings.ReplaceAll(f.help, "\n", `\n`))
		}
		emit("# TYPE %s %s\n", n, f.kind)
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
		for _, s := range f.series {
			emit("%s%s %d\n", n, s.labels, s.value())
		}
	}
	return total, werr
}
