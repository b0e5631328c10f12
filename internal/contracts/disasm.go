package contracts

import (
	"strings"

	"repro/internal/evmstatic"
)

// FormatDisassembly renders a full listing, annotating selector
// comparisons with dictionary signatures and truncated pushes with a
// "!truncated" marker.
func FormatDisassembly(code []byte) string {
	var sb strings.Builder
	for _, in := range evmstatic.Disassemble(code) {
		sb.WriteString(in.String())
		if in.Mnemonic == "PUSH4" && len(in.Operand) == 4 && !in.Truncated {
			var sel [4]byte
			copy(sel[:], in.Operand)
			if sig, ok := LookupSignature(sel); ok {
				sb.WriteString("  // ")
				sb.WriteString(sig)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
