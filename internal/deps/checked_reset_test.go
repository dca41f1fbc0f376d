//go:build checked

package deps

import "testing"

// TestCheckedResetPanicsOnPinnedNode: under the checked build, Reset
// asserts that a recycled node holds no pin.
func TestCheckedResetPanicsOnPinnedNode(t *testing.T) {
	var n Node
	n.Pin()
	defer func() {
		if recover() == nil {
			t.Fatal("Reset of a node holding a pin did not panic")
		}
	}()
	n.Reset()
}
