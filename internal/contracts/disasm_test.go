package contracts

import (
	"strings"
	"testing"

	"repro/internal/evm"
	"repro/internal/evmstatic"
)

func TestDisassembleRoundTripShape(t *testing.T) {
	runtime, err := Runtime(Spec{
		Style: StyleClaim, Operator: operator,
		OperatorPerMille: 200, Authorized: authorized,
	})
	if err != nil {
		t.Fatal(err)
	}
	ins := evmstatic.Disassemble(runtime)
	if len(ins) == 0 {
		t.Fatal("empty disassembly")
	}
	// PCs are strictly increasing and instruction boundaries respect
	// PUSH operand widths.
	for i := 1; i < len(ins); i++ {
		prev := ins[i-1]
		want := prev.PC + 1 + len(prev.Operand)
		if ins[i].PC != want {
			t.Fatalf("pc %d follows %d (operand %d bytes), want %d",
				ins[i].PC, prev.PC, len(prev.Operand), want)
		}
	}
	// The dispatcher references both selectors via PUSH4.
	var push4 int
	for _, in := range ins {
		if in.Mnemonic == "PUSH4" {
			push4++
		}
	}
	if push4 < 2 {
		t.Errorf("found %d PUSH4 instructions, want ≥ 2", push4)
	}
}

func TestDisassembleTruncatedPush(t *testing.T) {
	// PUSH4 with only 2 operand bytes available must not panic.
	code := []byte{evm.PUSH1 + 3, 0xaa, 0xbb}
	ins := evmstatic.Disassemble(code)
	if len(ins) != 1 || len(ins[0].Operand) != 2 {
		t.Errorf("truncated push decoded as %+v", ins)
	}
}

func TestDisassembleUnknownOpcode(t *testing.T) {
	ins := evmstatic.Disassemble([]byte{0xfe, evm.STOP})
	if len(ins) != 2 || !strings.Contains(ins[0].Mnemonic, "INVALID") {
		t.Errorf("unknown opcode decoded as %+v", ins)
	}
}

func TestFormatDisassemblyAnnotatesSelectors(t *testing.T) {
	runtime, err := Runtime(Spec{
		Style: StyleClaim, Operator: operator,
		OperatorPerMille: 200, Authorized: authorized,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatDisassembly(runtime)
	if !strings.Contains(out, "// Claim(address)") {
		t.Error("Claim selector not annotated")
	}
	if !strings.Contains(out, "// "+MulticallSignature) {
		t.Error("multicall selector not annotated")
	}
	if !strings.Contains(out, "JUMPDEST") || !strings.Contains(out, "CALLVALUE") {
		t.Error("listing lacks core opcodes")
	}
}
