"""Integer money arithmetic and unit conversions.

Units used throughout the simulator:

* fiat amounts: integer USD cents
* BTC prices: integer cents per whole BTC
* on-chain/channel amounts: integer millisatoshi (msat)
* treasury positions: integer satoshi (sats)

No operation produces fractional money. Conversions floor toward zero where
value is received (conservative) and round half-up where an amount is being
quoted (cents to msat).
"""

from __future__ import annotations

import math

MSAT_PER_BTC = 100_000_000_000
SATS_PER_BTC = 100_000_000
MSAT_PER_SAT = 1_000
MSAT_SUPPLY = 21_000_000 * MSAT_PER_BTC  # the BTC supply: no position or channel holds more


def round_half_up(x: float) -> int:
    """Round to the nearest integer, halves away from zero for positives."""
    return math.floor(x + 0.5)


def msat_to_cents(amount_msat: int, price_cents_per_btc: int) -> int:
    """Fiat value of an msat amount at the given price, floored to cents."""
    if price_cents_per_btc <= 0:
        raise ValueError("price must be positive")
    if amount_msat < 0:
        raise ValueError("amount must be non-negative")
    return amount_msat * price_cents_per_btc // MSAT_PER_BTC


def cents_to_msat(amount_cents: int, price_cents_per_btc: int) -> int:
    """msat equivalent of a fiat amount, rounded half-up."""
    if price_cents_per_btc <= 0:
        raise ValueError("price must be positive")
    if amount_cents < 0:
        raise ValueError("amount must be non-negative")
    num = amount_cents * MSAT_PER_BTC
    return (num + price_cents_per_btc // 2) // price_cents_per_btc


def floor_bps(amount: int, bps: int) -> int:
    """``floor(amount * bps / 10_000)``, the shared basis-point formula."""
    if amount < 0 or bps < 0:
        raise ValueError("amount and bps must be non-negative")
    return amount * bps // 10_000
