// Package prices provides the deterministic price oracle used to value
// stolen assets in USD. The paper reports every loss and profit figure
// in dollars at theft time; this oracle substitutes for the market-data
// feed with a smooth synthetic ETH/USD curve spanning the study window
// (March 2023 – April 2025) plus per-token quotes.
package prices

import (
	"math"
	"math/big"
	"sync"
	"time"

	"repro/internal/chain"
	"repro/internal/ethtypes"
)

// Quote describes a registered ERC-20 or ERC-721 asset.
type Quote struct {
	Symbol   string
	Decimals int // token decimals; ERC-721 uses 0 (price is per item)
	USD      float64
}

// Oracle values assets in USD. The zero value is unusable; call New.
type Oracle struct {
	mu     sync.RWMutex
	quotes map[ethtypes.Address]Quote
}

// Study window anchors for the synthetic ETH curve.
var (
	curveStart = time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC)
)

// New returns an oracle with no token registrations.
func New() *Oracle {
	return &Oracle{quotes: make(map[ethtypes.Address]Quote)}
}

// Register installs or replaces a token quote.
func (o *Oracle) Register(token ethtypes.Address, q Quote) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.quotes[token] = q
}

// QuoteOf returns the registered quote for a token.
func (o *Oracle) QuoteOf(token ethtypes.Address) (Quote, bool) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	q, ok := o.quotes[token]
	return q, ok
}

// ETHUSD returns the synthetic ETH price at time t: a slow ramp from
// ~$1,700 (March 2023) toward ~$3,400 (April 2025) with a gentle
// seasonal swing — enough realism that identical token amounts stolen a
// year apart value differently, as in the paper's dataset.
func (o *Oracle) ETHUSD(t time.Time) float64 {
	days := t.Sub(curveStart).Hours() / 24
	if days < 0 {
		days = 0
	}
	ramp := 1700 + days*2.2                     // ≈ +$800/year
	swing := 180 * math.Sin(days*2*math.Pi/365) // annual cycle
	return ramp + swing
}

// ValueUSD converts an asset amount to USD at time t. ETH amounts are
// wei; ERC-20 amounts are base units scaled by the registered decimals;
// ERC-721 amounts count items.
func (o *Oracle) ValueUSD(asset chain.Asset, amount ethtypes.Wei, t time.Time) float64 {
	switch asset.Kind {
	case chain.AssetETH:
		return amount.EtherFloat() * o.ETHUSD(t)
	case chain.AssetERC20:
		q, ok := o.QuoteOf(asset.Token)
		if !ok {
			return 0
		}
		return amount.Float64() / math.Pow10(q.Decimals) * q.USD
	case chain.AssetERC721:
		q, ok := o.QuoteOf(asset.Token)
		if !ok {
			return 0
		}
		return amount.Float64() * q.USD
	default:
		return 0
	}
}

// EtherForUSD returns the wei amount worth usd at time t — the inverse
// conversion the world generator uses to fund victims.
func (o *Oracle) EtherForUSD(usd float64, t time.Time) ethtypes.Wei {
	eth := usd / o.ETHUSD(t)
	// Work in gwei to keep precision without big floats.
	gwei := int64(eth * 1e9)
	if gwei < 0 {
		gwei = 0
	}
	return ethtypes.GWei(gwei)
}

// TokensForUSD returns the base-unit amount of token worth usd. The
// computation is exact in micro-USD so 18-decimal tokens cannot
// overflow.
func (o *Oracle) TokensForUSD(token ethtypes.Address, usd float64) ethtypes.Wei {
	q, ok := o.QuoteOf(token)
	if !ok || q.USD <= 0 || usd <= 0 {
		return ethtypes.Wei{}
	}
	microUSD := big.NewInt(int64(usd * 1e6))
	priceMicro := big.NewInt(int64(q.USD * 1e6))
	out := new(big.Int).Mul(microUSD, new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(q.Decimals)), nil))
	out.Div(out, priceMicro)
	return ethtypes.WeiFromBig(out)
}
