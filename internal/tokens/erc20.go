// Package tokens provides the native (Go-implemented) contracts of the
// simulated chain: ERC-20 fungible tokens, ERC-721 NFTs, and an NFT
// marketplace. They dispatch on standard 4-byte selectors, keep all
// state in chain storage (so transaction rollback works), emit standard
// event logs, and record fund-flow entries the classifier consumes —
// covering the three profit-sharing scenarios of the paper's Fig. 3.
package tokens

import (
	"errors"
	"fmt"
	"math/big"

	"repro/internal/chain"
	"repro/internal/ethabi"
	"repro/internal/ethtypes"
	"repro/internal/keccak"
)

// Token-contract errors.
var (
	ErrUnknownSelector = errors.New("tokens: unknown function selector")
	ErrBalance         = errors.New("tokens: insufficient balance")
	ErrAllowance       = errors.New("tokens: insufficient allowance")
	ErrNotOwner        = errors.New("tokens: caller does not own token")
	ErrNotAuthorized   = errors.New("tokens: caller not authorized")
	ErrBadCalldata     = errors.New("tokens: malformed calldata")
)

// Standard event topics.
var (
	TopicTransfer       = ethabi.EventTopic("Transfer(address,address,uint256)")
	TopicApproval       = ethabi.EventTopic("Approval(address,address,uint256)")
	TopicApprovalForAll = ethabi.EventTopic("ApprovalForAll(address,address,bool)")
)

// ERC-20 selectors.
var (
	SelTransfer     = ethabi.Selector("transfer(address,uint256)")
	SelTransferFrom = ethabi.Selector("transferFrom(address,address,uint256)")
	SelApprove      = ethabi.Selector("approve(address,uint256)")
	SelBalanceOf    = ethabi.Selector("balanceOf(address)")
	SelAllowance    = ethabi.Selector("allowance(address,address)")
	SelMint         = ethabi.Selector("mint(address,uint256)")
	// SelPermit is the gasless-approval entry (EIP-2612 shape,
	// signature parameters elided — the simulated chain carries no
	// transaction signatures, so the off-chain consent a drainer
	// harvests from the victim is represented by the call itself).
	// Permit phishing is one of the three phishing schemes the paper's
	// §7.2 lists; it lets the drainer obtain the allowance without the
	// victim ever sending an on-chain transaction.
	SelPermit = ethabi.Selector("permit(address,address,uint256)")
)

// ERC20 is a native fungible-token contract. All balances and
// allowances live in chain storage under hashed keys so that failed
// transactions roll back.
type ERC20 struct {
	Addr   ethtypes.Address
	Symbol string
	Admin  ethtypes.Address // only account allowed to mint
}

// NewERC20 returns the native contract; callers register it with
// chain.RegisterNative.
func NewERC20(addr ethtypes.Address, symbol string, admin ethtypes.Address) *ERC20 {
	return &ERC20{Addr: addr, Symbol: symbol, Admin: admin}
}

func balanceKey(owner ethtypes.Address) ethtypes.Hash {
	return ethtypes.Hash(keccak.Sum256([]byte("bal"), owner[:]))
}

func allowanceKey(owner, spender ethtypes.Address) ethtypes.Hash {
	return ethtypes.Hash(keccak.Sum256([]byte("alw"), owner[:], spender[:]))
}

func weiToWord(v ethtypes.Wei) ethtypes.Hash {
	var buf [32]byte
	b := v.AppendBytes(buf[:0])
	var h ethtypes.Hash
	copy(h[len(h)-len(b):], b)
	return h
}

func wordToWei(h ethtypes.Hash) ethtypes.Wei {
	return ethtypes.WeiFromBytes(h[:])
}

func boolReturn(ok bool) []byte {
	out := make([]byte, 32)
	if ok {
		out[31] = 1
	}
	return out
}

// Run implements chain.NativeContract.
func (t *ERC20) Run(env *chain.CallEnv) ([]byte, error) {
	if len(env.Input) < 4 {
		// Plain ETH sends to a token contract are rejected, as most
		// real token contracts do.
		return nil, fmt.Errorf("%w: empty calldata", ErrUnknownSelector)
	}
	var sel [4]byte
	copy(sel[:], env.Input[:4])
	switch sel {
	case SelTransfer:
		args, err := ethabi.Decode([]ethabi.Type{ethabi.AddressT, ethabi.Uint256T}, env.Input[4:])
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadCalldata, err)
		}
		to := args[0].(ethtypes.Address)
		amount := ethtypes.WeiFromBig(args[1].(*big.Int))
		if err := t.move(env, env.Caller, to, amount); err != nil {
			return nil, err
		}
		return boolReturn(true), nil

	case SelTransferFrom:
		args, err := ethabi.Decode([]ethabi.Type{ethabi.AddressT, ethabi.AddressT, ethabi.Uint256T}, env.Input[4:])
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadCalldata, err)
		}
		from := args[0].(ethtypes.Address)
		to := args[1].(ethtypes.Address)
		amount := ethtypes.WeiFromBig(args[2].(*big.Int))
		if from != env.Caller {
			ak := allowanceKey(from, env.Caller)
			allowed := wordToWei(env.StorageGet(ak))
			if allowed.Cmp(amount) < 0 {
				return nil, fmt.Errorf("%w: %s allows %s, need %s", ErrAllowance, from.Short(), allowed, amount)
			}
			env.StorageSet(ak, weiToWord(allowed.Sub(amount)))
		}
		if err := t.move(env, from, to, amount); err != nil {
			return nil, err
		}
		return boolReturn(true), nil

	case SelApprove:
		args, err := ethabi.Decode([]ethabi.Type{ethabi.AddressT, ethabi.Uint256T}, env.Input[4:])
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadCalldata, err)
		}
		spender := args[0].(ethtypes.Address)
		amount := ethtypes.WeiFromBig(args[1].(*big.Int))
		word := weiToWord(amount)
		env.StorageSet(allowanceKey(env.Caller, spender), word)
		env.EmitLog([]ethtypes.Hash{TopicApproval, addrTopic(env.Caller), addrTopic(spender)}, word[:])
		env.RecordApproval(chain.Approval{
			Token: t.Addr, Kind: chain.AssetERC20,
			Owner: env.Caller, Spender: spender, Amount: amount,
		})
		return boolReturn(true), nil

	case SelPermit:
		args, err := ethabi.Decode([]ethabi.Type{ethabi.AddressT, ethabi.AddressT, ethabi.Uint256T}, env.Input[4:])
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadCalldata, err)
		}
		owner := args[0].(ethtypes.Address)
		spender := args[1].(ethtypes.Address)
		amount := ethtypes.WeiFromBig(args[2].(*big.Int))
		word := weiToWord(amount)
		env.StorageSet(allowanceKey(owner, spender), word)
		env.EmitLog([]ethtypes.Hash{TopicApproval, addrTopic(owner), addrTopic(spender)}, word[:])
		env.RecordApproval(chain.Approval{
			Token: t.Addr, Kind: chain.AssetERC20,
			Owner: owner, Spender: spender, Amount: amount,
		})
		return boolReturn(true), nil

	case SelBalanceOf:
		args, err := ethabi.Decode([]ethabi.Type{ethabi.AddressT}, env.Input[4:])
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadCalldata, err)
		}
		bal := env.StorageGet(balanceKey(args[0].(ethtypes.Address)))
		return bal[:], nil

	case SelAllowance:
		args, err := ethabi.Decode([]ethabi.Type{ethabi.AddressT, ethabi.AddressT}, env.Input[4:])
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadCalldata, err)
		}
		al := env.StorageGet(allowanceKey(args[0].(ethtypes.Address), args[1].(ethtypes.Address)))
		return al[:], nil

	case SelMint:
		if env.Caller != t.Admin {
			return nil, fmt.Errorf("%w: mint by %s", ErrNotAuthorized, env.Caller.Short())
		}
		args, err := ethabi.Decode([]ethabi.Type{ethabi.AddressT, ethabi.Uint256T}, env.Input[4:])
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadCalldata, err)
		}
		to := args[0].(ethtypes.Address)
		amount := ethtypes.WeiFromBig(args[1].(*big.Int))
		bk := balanceKey(to)
		env.StorageSet(bk, weiToWord(wordToWei(env.StorageGet(bk)).Add(amount)))
		return boolReturn(true), nil

	default:
		return nil, fmt.Errorf("%w: %x", ErrUnknownSelector, sel)
	}
}

// move debits from and credits to, emitting the standard event and
// recording the fund-flow edge.
func (t *ERC20) move(env *chain.CallEnv, from, to ethtypes.Address, amount ethtypes.Wei) error {
	fk := balanceKey(from)
	bal := wordToWei(env.StorageGet(fk))
	if bal.Cmp(amount) < 0 {
		return fmt.Errorf("%w: %s has %s %s, need %s", ErrBalance, from.Short(), bal, t.Symbol, amount)
	}
	env.StorageSet(fk, weiToWord(bal.Sub(amount)))
	tk := balanceKey(to)
	env.StorageSet(tk, weiToWord(wordToWei(env.StorageGet(tk)).Add(amount)))
	data := weiToWord(amount)
	env.EmitLog([]ethtypes.Hash{TopicTransfer, addrTopic(from), addrTopic(to)}, data[:])
	env.RecordTokenTransfer(chain.Asset{Kind: chain.AssetERC20, Token: t.Addr}, from, to, amount)
	return nil
}

func addrTopic(a ethtypes.Address) ethtypes.Hash {
	var h ethtypes.Hash
	copy(h[12:], a[:])
	return h
}
