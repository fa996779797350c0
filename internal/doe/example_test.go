package doe_test

import (
	"fmt"

	"modeldata/internal/doe"
)

// ExampleResolutionIII7 prints the Figure 3 design verbatim.
func ExampleResolutionIII7() {
	d := doe.ResolutionIII7()
	for _, run := range d.Runs {
		for j, v := range run {
			if j > 0 {
				fmt.Print(" ")
			}
			fmt.Printf("%+d", v)
		}
		fmt.Println()
	}
	// Output:
	// -1 -1 -1 +1 +1 +1 -1
	// +1 -1 -1 -1 -1 +1 +1
	// -1 +1 -1 -1 +1 -1 +1
	// +1 +1 -1 +1 -1 -1 -1
	// -1 -1 +1 +1 -1 -1 +1
	// +1 -1 +1 -1 +1 -1 -1
	// -1 +1 +1 -1 -1 +1 -1
	// +1 +1 +1 +1 +1 +1 +1
}
