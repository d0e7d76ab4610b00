package experiments

import (
	"context"
	"fmt"

	"repro/internal/artifact"
	"repro/internal/machine"
	"repro/internal/subset"
)

// CrossISAResult extends §V-D: is a representative subset chosen on x86
// still representative when the target machine is the Arm server? The
// paper hints the answer matters ("particularly when designing the new
// Arm server processors") but never tests it; this experiment does.
type CrossISAResult struct {
	// X86Validation validates the x86-chosen subset on x86 scores
	// (the Fig 2 setting).
	X86Validation subset.Validation
	// ArmValidation validates the SAME subset against Xeon→Arm scores: if
	// the subset's coverage were ISA-specific, accuracy would collapse.
	ArmValidation subset.Validation
	// ArmNativeValidation validates a subset chosen by clustering the Arm
	// measurements themselves (the best a subset can do on Arm).
	ArmNativeValidation subset.Validation
}

// CrossISA runs the study on the 44 .NET categories.
func CrossISA(ctx context.Context, l *Lab) (*CrossISAResult, error) {
	baseM := machine.XeonE5()
	x86M := machine.CoreI9()
	armM := machine.Arm()

	base, err := l.MeasureSuiteByName(ctx, "dotnet", baseM)
	if err != nil {
		return nil, err
	}
	chX86, err := l.characterize(ctx, "dotnet", x86M)
	if err != nil {
		return nil, err
	}
	chArm, err := l.characterize(ctx, "dotnet", armM)
	if err != nil {
		return nil, err
	}

	x86Scores, err := machineScores(base, chX86.Measurements)
	if err != nil {
		return nil, err
	}
	armScores, err := machineScores(base, chArm.Measurements)
	if err != nil {
		return nil, err
	}

	selX86 := chX86.Subset(8)
	selArm := chArm.Subset(8)

	out := &CrossISAResult{
		X86Validation:       subset.Validate("x86 subset on x86 scores", x86Scores, selX86),
		ArmValidation:       subset.Validate("x86 subset on Arm scores", armScores, selX86),
		ArmNativeValidation: subset.Validate("Arm-chosen subset on Arm scores", armScores, selArm),
	}
	return out, nil
}

// Artifact renders the study: header, validation table, reading notes.
func (r *CrossISAResult) Artifact() *artifact.Artifact {
	var rows [][]artifact.Value
	for _, v := range []subset.Validation{r.X86Validation, r.ArmValidation, r.ArmNativeValidation} {
		rows = append(rows, []artifact.Value{
			artifact.Str(v.Name),
			artifact.Num(fmt.Sprintf("%.4f", v.FullComposite), v.FullComposite),
			artifact.Num(fmt.Sprintf("%.4f", v.SubsetComposite), v.SubsetComposite),
			artifact.Num(fmt.Sprintf("%.1f%%", v.AccuracyFraction*100), v.AccuracyFraction*100),
		})
	}
	a := &artifact.Artifact{Name: "crossisa", Title: "Cross-ISA subset validity (extension)", Paper: "§V-D / §VIII extension"}
	a.Add(
		artifact.NoteLine("header", "Cross-ISA subset validity (extension): does an x86-derived subset transfer to Arm?"),
		&artifact.Table{
			Name: "validations",
			Columns: []artifact.Column{
				{Name: "validation"}, {Name: "full composite"}, {Name: "subset composite"},
				{Name: "accuracy", Unit: "%"},
			},
			Rows: rows,
		},
		&artifact.Note{Name: "reading", Lines: []string{
			"  reading: a large x86->Arm accuracy drop would mean benchmark subsetting",
			"  must be redone per ISA, a caveat for the paper's §VIII Arm guidance",
		}},
	)
	return a
}

// String renders the study.
func (r *CrossISAResult) String() string { return artifact.Text(r.Artifact()) }
