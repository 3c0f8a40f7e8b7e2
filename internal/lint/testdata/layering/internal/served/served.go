// Package served is on the serving path and imports nothing from the
// experiments: clean.
package served

import "strings"

// Answer uses the import so the fixture type-checks.
func Answer() int { return len(strings.TrimSpace(" served ")) }
