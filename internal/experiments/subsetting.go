package experiments

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/artifact"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/pca"
	"repro/internal/subset"
	"repro/internal/workload"
)

// TableIIIResult reproduces Table III: the top loading factors of the
// first four principal components over the .NET categories' 24-metric
// vectors, with per-component explained variance. Registered external
// suites get the same analysis, appended in External.
type TableIIIResult struct {
	Components   [][]pca.Loading // top loadings per PRCO
	Variance     []float64       // explained variance per PRCO
	CumVariance4 float64         // paper: 0.79
	KaiserCount  int             // data-driven component count cross-check

	External []TableIIISuite // one per registered external suite
}

// TableIIISuite is the Table III analysis of one external suite.
type TableIIISuite struct {
	Wire         string
	Title        string
	Components   [][]pca.Loading
	Variance     []float64
	CumVariance4 float64
	KaiserCount  int
}

// pcaSummary extracts the Table III numbers from a characterization.
func pcaSummary(ch *core.Characterization) ([][]pca.Loading, []float64, float64, int) {
	var comps [][]pca.Loading
	var vari []float64
	names := metrics.Names()
	for k := 0; k < 4; k++ {
		comps = append(comps, ch.PCA.TopLoadings(k, 3, names))
		vari = append(vari, ch.PCA.ExplainedVariance[k])
	}
	return comps, vari, ch.PCA.CumulativeVariance(4), ch.PCA.KaiserCount()
}

// TableIII runs the §IV-A metric-redundancy analysis on the .NET suite,
// then on every registered external suite.
func TableIII(ctx context.Context, l *Lab) (*TableIIIResult, error) {
	m := machine.CoreI9()
	ch, err := l.characterize(ctx, "dotnet", m)
	if err != nil {
		return nil, err
	}
	res := &TableIIIResult{}
	res.Components, res.Variance, res.CumVariance4, res.KaiserCount = pcaSummary(ch)
	for _, def := range l.externalSuites() {
		ech, err := l.characterize(ctx, def.Wire, m)
		if err != nil {
			return nil, fmt.Errorf("suite %s: %w", def.Wire, err)
		}
		es := TableIIISuite{Wire: def.Wire, Title: def.Suite.String()}
		es.Components, es.Variance, es.CumVariance4, es.KaiserCount = pcaSummary(ech)
		res.External = append(res.External, es)
	}
	return res, nil
}

// tableIIIPayloads builds one suite's Table III payloads: the prose
// loadings note plus hidden tables carrying the unrounded loadings and
// variance summary. suffix distinguishes external suites ("" for the
// paper's .NET analysis, ":"+wire otherwise).
func tableIIIPayloads(header, suffix string, comps [][]pca.Loading, vari []float64, cum float64, kaiser int) []artifact.Payload {
	lines := []string{header}
	var loadRows [][]artifact.Value
	for k, loads := range comps {
		lines = append(lines, fmt.Sprintf("  PRCO%d (%.3f):", k+1, vari[k]))
		for _, ld := range loads {
			lines = append(lines, fmt.Sprintf("    %-32s %+.3f", ld.Metric, ld.Weight))
			loadRows = append(loadRows, []artifact.Value{
				artifact.Str(fmt.Sprintf("PRCO%d", k+1)),
				artifact.Str(ld.Metric),
				artifact.Number(ld.Weight),
				artifact.Number(vari[k]),
			})
		}
	}
	lines = append(lines,
		fmt.Sprintf("  top-4 cumulative variance: %.3f (paper: 0.79)", cum),
		fmt.Sprintf("  Kaiser criterion (eigenvalue > 1): %d components", kaiser),
	)
	return []artifact.Payload{
		&artifact.Note{Name: "loadings" + suffix, Lines: lines},
		&artifact.Table{
			Name:   "loadings-data" + suffix,
			Hidden: true,
			Columns: []artifact.Column{
				{Name: "component"}, {Name: "metric"}, {Name: "loading"}, {Name: "explained_variance"},
			},
			Rows: loadRows,
		},
		&artifact.Table{
			Name:    "variance-data" + suffix,
			Hidden:  true,
			Columns: []artifact.Column{{Name: "statistic"}, {Name: "value"}},
			Rows: [][]artifact.Value{
				{artifact.Str("top4_cumulative_variance"), artifact.Number(cum)},
				{artifact.Str("kaiser_components"), artifact.Number(float64(kaiser))},
			},
		},
	}
}

// Artifact renders Table III: the .NET analysis exactly as the paper
// lays it out, then one section per registered external suite.
func (r *TableIIIResult) Artifact() *artifact.Artifact {
	a := &artifact.Artifact{Name: "table3", Title: "Table III: principal-component loading factors", Paper: "Table III"}
	a.Add(tableIIIPayloads(
		"Table III: loading factors of the top 3 metrics on the four principal components",
		"", r.Components, r.Variance, r.CumVariance4, r.KaiserCount)...)
	for _, es := range r.External {
		a.Add(tableIIIPayloads(
			fmt.Sprintf("Table III (external suite %s): loading factors of the top 3 metrics on the four principal components", es.Title),
			":"+es.Wire, es.Components, es.Variance, es.CumVariance4, es.KaiserCount)...)
	}
	return a
}

// String renders Table III.
func (r *TableIIIResult) String() string { return artifact.Text(r.Artifact()) }

// TableIVResult reproduces Table IV: the representative 8-element
// subset of every characterized suite — the paper's three, plus any
// registered external suite — with the paper-style one-line
// descriptions where the catalog carries them.
type TableIVResult struct {
	Columns      []TableIVColumn
	Descriptions map[string]string
}

// TableIVColumn is one suite's representative subset.
type TableIVColumn struct {
	Wire  string
	Title string
	Names []string
}

// characterizationSuites lists the suites the subsetting drivers
// analyze: every registered suite except the sampled measurement pools
// (the individual-.NET pool serves Subset B, not the suite tables).
func (l *Lab) characterizationSuites() []*workload.SuiteDef {
	var out []*workload.SuiteDef
	for _, def := range l.Suites() {
		if !def.Measurement.Sampled {
			out = append(out, def)
		}
	}
	return out
}

// TableIV derives representative subsets by clustering each suite in its
// top-4-PC space and picking one medoid per cluster.
func TableIV(ctx context.Context, l *Lab) (*TableIVResult, error) {
	m := machine.CoreI9()
	out := &TableIVResult{Descriptions: map[string]string{}}
	for _, def := range l.characterizationSuites() {
		ch, err := l.characterize(ctx, def.Wire, m)
		if err != nil {
			return nil, fmt.Errorf("suite %s: %w", def.Wire, err)
		}
		out.Columns = append(out.Columns, TableIVColumn{
			Wire:  def.Wire,
			Title: def.Suite.String(),
			Names: ch.SubsetNames(ch.Subset(8)),
		})
		for _, meas := range ch.Measurements {
			if meas.Err == nil && meas.Workload.Description != "" {
				out.Descriptions[meas.Workload.Name] = meas.Workload.Description
			}
		}
	}
	return out, nil
}

// Artifact renders Table IV as one table payload, one column per suite.
func (r *TableIVResult) Artifact() *artifact.Artifact {
	get := func(s []string, i int) string {
		if i < len(s) {
			return s[i]
		}
		return ""
	}
	describe := func(name string) string {
		if d := r.Descriptions[name]; d != "" {
			return fmt.Sprintf("%s — %s", name, d)
		}
		return name
	}
	depth := 0
	for _, c := range r.Columns {
		if len(c.Names) > depth {
			depth = len(c.Names)
		}
	}
	cols := make([]artifact.Column, len(r.Columns))
	rows := make([][]artifact.Value, depth)
	for j, c := range r.Columns {
		cols[j] = artifact.Column{Name: c.Title}
		for i := 0; i < depth; i++ {
			if j == 0 {
				rows[i] = make([]artifact.Value, len(r.Columns))
			}
			rows[i][j] = artifact.Str(describe(get(c.Names, i)))
		}
	}
	a := &artifact.Artifact{Name: "table4", Title: "Table IV: representative subsets (derived)", Paper: "Table IV"}
	a.Add(&artifact.Table{
		Name:    "subsets",
		Title:   "Table IV: representative subsets (derived)",
		Columns: cols,
		Rows:    rows,
	})
	return a
}

// String renders Table IV.
func (r *TableIVResult) String() string { return artifact.Text(r.Artifact()) }

// Figure1Result reproduces Fig 1: the dendrogram over the 44 .NET
// categories, plus one dendrogram per registered external suite.
type Figure1Result struct {
	Dendrogram *cluster.Dendrogram
	Labels     []string
	Subset     []string // the 8 representatives, underlined in the paper

	External []Figure1Suite
}

// Figure1Suite is the Fig 1 clustering of one external suite.
type Figure1Suite struct {
	Wire       string
	Title      string
	Dendrogram *cluster.Dendrogram
	Labels     []string
	Subset     []string
}

// figure1Suite returns one suite's dendrogram, its leaf labels and its
// 8-cut representatives.
func figure1Suite(ch *core.Characterization) (*cluster.Dendrogram, []string, []string) {
	labels := make([]string, 0, len(ch.Measurements))
	for _, m := range ch.Measurements {
		if m.Err == nil {
			labels = append(labels, m.Workload.Name)
		}
	}
	return ch.Dendrogram, labels, ch.SubsetNames(ch.Subset(8))
}

// Figure1 clusters the .NET categories and marks the 8-cut
// representatives, then does the same for every external suite.
func Figure1(ctx context.Context, l *Lab) (*Figure1Result, error) {
	m := machine.CoreI9()
	ch, err := l.characterize(ctx, "dotnet", m)
	if err != nil {
		return nil, err
	}
	res := &Figure1Result{}
	res.Dendrogram, res.Labels, res.Subset = figure1Suite(ch)
	for _, def := range l.externalSuites() {
		ech, err := l.characterize(ctx, def.Wire, m)
		if err != nil {
			return nil, fmt.Errorf("suite %s: %w", def.Wire, err)
		}
		es := Figure1Suite{Wire: def.Wire, Title: def.Suite.String()}
		es.Dendrogram, es.Labels, es.Subset = figure1Suite(ech)
		res.External = append(res.External, es)
	}
	return res, nil
}

// treeNode converts a cluster node to the artifact tree model, resolving
// leaf indices to labels ("leaf N" when a label is missing).
func treeNode(n *cluster.Node, labels []string) *artifact.TreeNode {
	if n == nil {
		return nil
	}
	if n.IsLeaf() {
		label := "leaf " + strconv.Itoa(n.Leaf)
		if n.Leaf < len(labels) {
			label = labels[n.Leaf]
		}
		return &artifact.TreeNode{Label: label, Size: 1}
	}
	return &artifact.TreeNode{
		Distance: n.Distance,
		Size:     n.Size,
		Left:     treeNode(n.Left, labels),
		Right:    treeNode(n.Right, labels),
	}
}

// Artifact renders Fig 1: the dendrogram tree plus the representatives
// line, then one tree per external suite.
func (r *Figure1Result) Artifact() *artifact.Artifact {
	a := &artifact.Artifact{Name: "fig1", Title: "Fig 1: .NET category similarity dendrogram", Paper: "Fig. 1"}
	a.Add(
		&artifact.Tree{
			Name:  "dendrogram",
			Title: "Fig 1: .NET category similarity dendrogram",
			Root:  treeNode(r.Dendrogram.Root, r.Labels),
		},
		artifact.NoteLine("representatives", "  8-cut representatives: "+strings.Join(r.Subset, ", ")),
	)
	for _, es := range r.External {
		a.Add(
			&artifact.Tree{
				Name:  "dendrogram:" + es.Wire,
				Title: fmt.Sprintf("Fig 1 (external suite %s): similarity dendrogram", es.Title),
				Root:  treeNode(es.Dendrogram.Root, es.Labels),
			},
			artifact.NoteLine("representatives:"+es.Wire, "  8-cut representatives: "+strings.Join(es.Subset, ", ")),
		)
	}
	return a
}

// String renders Fig 1 as a text dendrogram.
func (r *Figure1Result) String() string { return artifact.Text(r.Artifact()) }

// Figure2Result reproduces Fig 2: validation of the representative
// subsets via SPECspeed-style composite scores (Xeon baseline, i9 as
// machine A). The paper reports A=98.7%, B=96.3%, A(o)=99.9%.
// Registered external suites get the same two-machine validation.
type Figure2Result struct {
	SubsetA  subset.Validation // 8 of 44 categories (this repo's derived subset)
	SubsetB  subset.Validation // 64 of the individual workloads
	SubsetAO subset.Validation // exhaustive/greedy optimum over the A clusters

	External []subset.Validation // one per registered external suite
}

// Figure2 validates subsets A, B and A(o).
func Figure2(ctx context.Context, l *Lab) (*Figure2Result, error) {
	baseM, fastM := machine.XeonE5(), machine.CoreI9()

	// --- Subset A: categories ---
	baseCats, err := l.MeasureSuiteByName(ctx, "dotnet", baseM)
	if err != nil {
		return nil, err
	}
	chA, err := l.characterize(ctx, "dotnet", fastM)
	if err != nil {
		return nil, err
	}
	scoresA, err := machineScores(baseCats, chA.Measurements)
	if err != nil {
		return nil, err
	}
	selA := chA.Subset(8)
	valA := subset.Validate("Subset A (8/44 categories)", scoresA, selA)

	// --- Subset A(o): best one-per-cluster pick ---
	valAO := subset.Optimal(scoresA, chA.Clusters(8), 2_000_000)
	valAO.Name = "Subset A(o) (optimal)"

	// --- Subset B: individual workloads ---
	baseInd, err := l.MeasureSuiteByName(ctx, "dotnet-individual", baseM)
	if err != nil {
		return nil, err
	}
	chB, err := l.characterize(ctx, "dotnet-individual", fastM)
	if err != nil {
		return nil, err
	}
	scoresB, err := machineScores(baseInd, chB.Measurements)
	if err != nil {
		return nil, err
	}
	k := 64
	if k > len(scoresB) {
		k = len(scoresB)
	}
	selB := chB.Subset(k)
	valB := subset.Validate(fmt.Sprintf("Subset B (%d/%d workloads)", k, len(scoresB)), scoresB, selB)

	res := &Figure2Result{SubsetA: valA, SubsetB: valB, SubsetAO: valAO}

	// --- External suites: same two-machine validation, 8-cut subset ---
	for _, def := range l.externalSuites() {
		baseE, err := l.MeasureSuite(ctx, def, baseM)
		if err != nil {
			return nil, err
		}
		chE, err := l.characterize(ctx, def.Wire, fastM)
		if err != nil {
			return nil, fmt.Errorf("suite %s: %w", def.Wire, err)
		}
		scoresE, err := machineScores(baseE, chE.Measurements)
		if err != nil {
			return nil, fmt.Errorf("suite %s: %w", def.Wire, err)
		}
		ke := 8
		if ke > len(scoresE) {
			ke = len(scoresE)
		}
		res.External = append(res.External, subset.Validate(
			fmt.Sprintf("Subset %s (%d/%d)", def.Wire, ke, len(scoresE)),
			scoresE, chE.Subset(ke)))
	}
	return res, nil
}

// machineScores computes SPECspeed-style scores from two machines'
// measurements of the same suite.
func machineScores(base, fast []core.Measurement) ([]float64, error) {
	bt := core.ExecutionTimes(base)
	ft := core.ExecutionTimes(fast)
	// Keep only workloads that succeeded on both machines.
	var b2, f2 []float64
	for i := range bt {
		if bt[i] > 0 && ft[i] > 0 {
			b2 = append(b2, bt[i])
			f2 = append(f2, ft[i])
		}
	}
	return subset.Scores(b2, f2)
}

// Artifact renders Fig 2 as one validation table; external-suite rows
// follow the paper's three.
func (r *Figure2Result) Artifact() *artifact.Artifact {
	vals := append([]subset.Validation{r.SubsetA, r.SubsetB, r.SubsetAO}, r.External...)
	rows := [][]artifact.Value{}
	for _, v := range vals {
		rows = append(rows, []artifact.Value{
			artifact.Str(v.Name),
			artifact.Num(fmt.Sprintf("%.4f", v.FullComposite), v.FullComposite),
			artifact.Num(fmt.Sprintf("%.4f", v.SubsetComposite), v.SubsetComposite),
			artifact.Num(fmt.Sprintf("%.1f%%", v.AccuracyFraction*100), v.AccuracyFraction*100),
		})
	}
	a := &artifact.Artifact{Name: "fig2", Title: "Fig 2: representative-subset validation", Paper: "Fig. 2"}
	a.Add(&artifact.Table{
		Name:  "validation",
		Title: "Fig 2: representative-subset validation (Xeon baseline vs i9)",
		Columns: []artifact.Column{
			{Name: "subset"}, {Name: "full composite"}, {Name: "subset composite"},
			{Name: "accuracy", Unit: "%"},
		},
		Rows: rows,
	})
	return a
}

// String renders Fig 2.
func (r *Figure2Result) String() string { return artifact.Text(r.Artifact()) }
