package telemetry

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// sample is one parsed exposition line.
type sample struct {
	name   string
	labels map[string]string
	value  float64
	line   string
}

// parseLine parses one non-comment exposition line.
func parseLine(line string) (sample, error) {
	s := sample{labels: map[string]string{}, line: line}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("no value")
	} else {
		s.name = rest[:i]
		rest = rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		rest = rest[1:]
		for !strings.HasPrefix(rest, "}") {
			eq := strings.Index(rest, "=\"")
			if eq < 0 {
				return s, fmt.Errorf("malformed label in %q", line)
			}
			key := rest[:eq]
			rest = rest[eq+2:]
			var val strings.Builder
			for {
				if rest == "" {
					return s, fmt.Errorf("unterminated label value in %q", line)
				}
				c := rest[0]
				rest = rest[1:]
				if c == '\\' && rest != "" {
					val.WriteByte(rest[0])
					rest = rest[1:]
					continue
				}
				if c == '"' {
					break
				}
				val.WriteByte(c)
			}
			s.labels[key] = val.String()
			rest = strings.TrimPrefix(rest, ",")
		}
		rest = strings.TrimPrefix(rest, "}")
	}
	rest = strings.TrimSpace(rest)
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q", rest)
	}
	s.value = v
	return s, nil
}

// CheckExposition validates Prometheus text exposition, the format
// WritePrometheus and the /metrics endpoint emit, and checks that every
// family prefix in wants names at least one sample. It checks that:
//
//   - every sample belongs to a # TYPE'd family (histogram samples
//     through their _bucket, _sum and _count suffixes);
//   - histogram families have ascending le bounds with non-decreasing
//     cumulative counts, a final +Inf bucket equal to _count, and
//     exactly one _sum;
//   - _quantile gauge families carry exactly the 0.5, 0.95 and 0.99
//     quantile labels, with non-decreasing values.
//
// It returns one problem string per violation; none means the text is
// valid and holds every wanted family.
func CheckExposition(text string, wants []string) []string {
	var problems []string
	types := map[string]string{}
	samples := map[string][]sample{}
	var order []string
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" || strings.HasPrefix(line, "# HELP") {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(rest)
			if len(f) != 2 {
				problems = append(problems, fmt.Sprintf("malformed TYPE line %q", line))
				continue
			}
			types[f[0]] = f[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseLine(line)
		if err != nil {
			problems = append(problems, fmt.Sprintf("unparseable line %q: %v", line, err))
			continue
		}
		if _, seen := samples[s.name]; !seen {
			order = append(order, s.name)
		}
		samples[s.name] = append(samples[s.name], s)
	}

	// Every sample must belong to a typed family (histogram samples via
	// their _bucket/_sum/_count suffixes).
	for _, name := range order {
		if _, ok := types[name]; ok {
			continue
		}
		found := false
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && types[base] == "histogram" {
				found = true
				break
			}
		}
		if !found {
			problems = append(problems, fmt.Sprintf("family %s has no # TYPE line", name))
		}
	}

	var families []string
	for name := range types {
		families = append(families, name)
	}
	sort.Strings(families)
	for _, name := range families {
		switch types[name] {
		case "histogram":
			problems = append(problems, checkHistogram(name, samples)...)
		case "gauge":
			if strings.HasSuffix(name, "_quantile") {
				problems = append(problems, checkQuantiles(name, samples[name])...)
			}
		case "counter":
		default:
			problems = append(problems, fmt.Sprintf("%s: unknown type %q", name, types[name]))
		}
	}

	for _, w := range wants {
		found := false
		for _, name := range order {
			if strings.HasPrefix(name, w) {
				found = true
				break
			}
		}
		if !found {
			problems = append(problems, fmt.Sprintf("wanted family %s not present", w))
		}
	}
	return problems
}

// checkHistogram validates one histogram family's bucket/sum/count
// samples.
func checkHistogram(name string, samples map[string][]sample) []string {
	var problems []string
	buckets := samples[name+"_bucket"]
	if len(buckets) == 0 {
		return []string{fmt.Sprintf("%s: histogram without _bucket samples", name)}
	}
	prevLE := -1.0
	prevCum := -1.0
	sawInf := false
	for i, b := range buckets {
		le, ok := b.labels["le"]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: bucket without le label: %q", name, b.line))
			continue
		}
		if le == "+Inf" {
			sawInf = true
			if i != len(buckets)-1 {
				problems = append(problems, fmt.Sprintf("%s: +Inf bucket is not last", name))
			}
		} else {
			v, err := strconv.ParseFloat(le, 64)
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s: unparseable le %q", name, le))
				continue
			}
			if v <= prevLE {
				problems = append(problems, fmt.Sprintf("%s: le bounds not ascending at %q", name, b.line))
			}
			prevLE = v
		}
		if b.value < prevCum {
			problems = append(problems, fmt.Sprintf("%s: cumulative count decreases at %q", name, b.line))
		}
		prevCum = b.value
	}
	if !sawInf {
		problems = append(problems, fmt.Sprintf("%s: missing +Inf bucket", name))
	}
	count := samples[name+"_count"]
	if len(count) != 1 {
		problems = append(problems, fmt.Sprintf("%s: want exactly one _count sample, got %d", name, len(count)))
	} else if sawInf {
		last := buckets[len(buckets)-1].value
		//charnet:ignore floateq both sides are exact integer sample counts parsed from the exposition; any difference is a real violation
		if last != count[0].value {
			problems = append(problems, fmt.Sprintf("%s: +Inf bucket %v != _count %v", name, last, count[0].value))
		}
	}
	if len(samples[name+"_sum"]) != 1 {
		problems = append(problems, fmt.Sprintf("%s: want exactly one _sum sample", name))
	}
	return problems
}

// checkQuantiles validates a companion _quantile gauge family: exactly
// the 0.5/0.95/0.99 labels, values non-decreasing in quantile order.
func checkQuantiles(name string, qs []sample) []string {
	var problems []string
	wantLabels := []string{"0.5", "0.95", "0.99"}
	if len(qs) != len(wantLabels) {
		return []string{fmt.Sprintf("%s: want %d quantile samples, got %d", name, len(wantLabels), len(qs))}
	}
	prev := -1.0
	for i, q := range qs {
		if got := q.labels["quantile"]; got != wantLabels[i] {
			problems = append(problems, fmt.Sprintf("%s: quantile label %q, want %q", name, got, wantLabels[i]))
		}
		if q.value < prev {
			problems = append(problems, fmt.Sprintf("%s: quantile values not non-decreasing at %q", name, q.line))
		}
		prev = q.value
	}
	return problems
}
