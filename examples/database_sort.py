"""Sorting database records by key -- the GPUTeraSort-style use case.

Run:  python examples/database_sort.py

Section 8 frames the "usual application scenario": records are sorted
through an array of value/pointer pairs (32-bit float key + 32-bit record
pointer); the records themselves never move during the sort.  Govindaraju
et al.'s GPUTeraSort [GGKM05] wraps exactly this pattern with key-generator
and reorder stages for out-of-core databases -- this example shows the
in-core version of that pipeline on GPU-ABiSort:

1. build the key/pointer pair array from a record table,
2. sort the pairs with the ``abisort`` engine, which pads to a power of
   two internally (+inf keys sort last; paper Section 4),
3. reorder (gather) the payload by the sorted pointers.
"""

from __future__ import annotations

import numpy as np

import repro
from repro.workloads.records import RecordTable
from repro.workloads.rng import seeded_rng


def abisort(pairs: np.ndarray) -> np.ndarray:
    """Sort value/pointer pairs of any length with GPU-ABiSort."""
    return repro.sort(repro.SortRequest(values=pairs), engine="abisort").values


def main() -> None:
    rng = seeded_rng(2006)

    # A toy "orders" table: non-power-of-two row count, structured payload.
    n = 3_000
    payload = np.zeros(
        n,
        dtype=[("order_id", "u4"), ("customer", "S8"), ("amount", "f4")],
    )
    payload["order_id"] = np.arange(n)
    payload["customer"] = np.array(
        [f"cust{int(c):04d}".encode() for c in rng.integers(0, 500, n)]
    )
    payload["amount"] = rng.gamma(2.0, 50.0, n).astype(np.float32)

    # Sort by amount: key = amount, pointer = row index.
    table = RecordTable(payload["amount"], payload)
    pairs = table.pairs()
    print(f"sorting {n} records by amount")

    sorted_pairs = abisort(pairs)

    sorted_records = table.sorted_payload(sorted_pairs)
    amounts = sorted_records["amount"]
    assert (np.diff(amounts) >= 0).all()
    print("smallest orders:")
    for rec in sorted_records[:3]:
        print(f"  order {rec['order_id']:>5}  {rec['customer'].decode():<9}"
              f"  {rec['amount']:8.2f}")
    print("largest orders:")
    for rec in sorted_records[-3:]:
        print(f"  order {rec['order_id']:>5}  {rec['customer'].decode():<9}"
              f"  {rec['amount']:8.2f}")

    # Wide keys (the GGKM05 concern): sort on a 64-bit composite by doing a
    # two-pass LSD-style sort on 32-bit float keys -- sort by low word
    # first, then (stably, via the id tiebreak trick) by high word.
    print("\ncomposite key (customer, amount): sort twice, low part first")
    low = table.pairs()
    low["key"] = payload["amount"]
    by_amount = abisort(low)
    # Second pass: keys = integer customer bucket; ids = ranks from pass 1,
    # so equal customers keep the amount order (the id tiebreak makes the
    # pass stable with respect to pass 1).
    _uniq, buckets = np.unique(payload["customer"], return_inverse=True)
    second = np.empty(n, dtype=repro.VALUE_DTYPE)
    second["key"] = buckets[by_amount["id"]].astype(np.float32)
    second["id"] = np.arange(n, dtype=np.uint32)
    by_both_rank = abisort(second)
    final_rows = by_amount["id"][by_both_rank["id"]]
    final = payload[final_rows]
    # Verify: sorted by customer, amounts ascending within a customer.
    cust = final["customer"]
    assert (cust[:-1] <= cust[1:]).all()
    same = cust[:-1] == cust[1:]
    assert (final["amount"][:-1][same] <= final["amount"][1:][same]).all()
    print(f"  sorted {n} records by (customer, amount); "
          f"first: {final['customer'][0].decode()} {final['amount'][0]:.2f}")


if __name__ == "__main__":
    main()
