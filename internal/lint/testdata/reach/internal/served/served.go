// Package served is on the serving path; each exported symbol below is
// a case of the reach rule.
package served

// Used is called by the serving root: silent.
func Used() int { return helper() }

func helper() int { return 1 }

// FromCmd is called by a command outside the closure: silent.
func FromCmd() int { return 2 }

// FromBench is called by the benchmark harness: silent.
func FromBench() int { return 3 }

// FromExample is called by an example: silent.
func FromExample() int { return 4 }

// OnlyTests is called from a _test.go file alone: a finding.
func OnlyTests() int { return 5 }

// OnlyExperiment is called from an experiment package alone: a finding.
func OnlyExperiment() int { return 6 }

// Recursive calls itself and nothing else calls it: a use inside its own
// declaration does not count, so a finding.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Allowed is used by nothing the rule sees, and says who uses it: silent.
//
//lint:allow reach: the fixture's external caller
func Allowed() int { return 7 }

// EmptyReason has an allow line with no reason, which suppresses
// nothing: a finding (and a suppress diagnostic on the directive).
//
//lint:allow reach:
func EmptyReason() int { return 8 }

// Shape is the interface the serving root calls Area through: silent.
type Shape interface {
	Area() int
	Perimeter() int // nothing calls it: a finding
}

// Square is named by nothing but the serving root's constructor call.
type Square struct{ side int }

// NewSquare is called by the serving root: silent.
func NewSquare(side int) *Square { return &Square{side: side} }

// Area is reached only through Shape: silent.
func (s *Square) Area() int { return s.side * s.side }

// Perimeter implements a method no user calls through Shape: a finding.
func (s *Square) Perimeter() int { return 4 * s.side }

// String is called by fmt through fmt.Stringer: silent.
func (s *Square) String() string { return "square" }

// Name is declared before its receiver type and nothing calls it: a
// finding.
func (Orphan) Name() string { return "orphan" }

// Orphan is named only by its own method: a finding.
type Orphan struct{}
