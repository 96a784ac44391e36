//go:build !poison

package tensor

// poison is off: PutBuf takes buffers back as they are (see poison_on.go).
const poison = false

func fillNaN([]float32) {}
