//go:build !amd64 || noasm

package tensor

// The portable kernel is the only int8 engine.
const hostInt8Engine = engineGeneric

func int8EngineUsable(e int8Engine) bool { return e == engineGeneric }

// int8Kernel routes to the portable kernel.
func int8Kernel(p *int8Panel) { int8PanelGeneric(p) }

// int8TilesAMX is never reached: no host here selects the AMX engine.
func int8TilesAMX(*amxKernel) { panic("tensor: no AMX engine in this build") }
