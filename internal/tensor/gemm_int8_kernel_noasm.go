//go:build !amd64 || noasm

package tensor

// int8Kernel routes to the portable kernel.
func int8Kernel(p *int8Panel) { int8PanelGeneric(p) }
