// Package lib declares one exported function of each kind the dead-API
// gate tells apart.
package lib

import "fmt"

// Dead has no caller but itself, which does not keep it alive.
func Dead(n int) int {
	if n <= 0 {
		return 0
	}
	return Dead(n - 1)
}

// TestOnly is called only from lib_test.go.
func TestOnly() int { return 2 }

// Called has a caller in cmd/app.
func Called() int { return 3 }

// Kept has no caller but is listed in the allowlist.
func Kept() int { return 4 }

// Celsius satisfies fmt.Stringer; nothing calls String directly.
type Celsius float64

func (c Celsius) String() string { return fmt.Sprintf("%.1fC", float64(c)) }
