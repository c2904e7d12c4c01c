"""The paper's reference numbers the ledger scores a profile against.

``profile_err_pp`` is the largest absolute difference, in percentage
points, between a stitched profile's shares and these tables.  They are
transcribed from the paper, never from a run of this repository, so a
speed change that bends the model moves the error and a deliberate
model change is judged against the paper rather than against itself.
"""

from __future__ import annotations

from typing import Dict, Mapping

#: Table 1, column 1: % of the MySQL CPU profile per TPC-W interaction
#: (browsing mix).  OrderInquiry is absent from the paper's table.
TABLE1_MYSQL_CPU_PCT: Dict[str, float] = {
    "AdminConfirm": 0.82,
    "AdminRequest": 0.00,
    "BestSellers": 51.50,
    "BuyConfirm": 0.04,
    "BuyRequest": 0.03,
    "CustomerRegistration": 0.00,
    "Home": 0.57,
    "NewProducts": 3.29,
    "OrderDisplay": 0.01,
    "ProductDetail": 0.22,
    "SearchRequest": 0.16,
    "SearchResult": 43.28,
    "ShoppingCart": 0.07,
}

#: Fig 10: % of Haboob's CPU profile per SEDA stage.  WriteStage is
#: split by the transaction context it ran under, which is the figure's
#: point; the other stages are summed over their contexts.
FIG10_HABOOB_STAGE_PCT: Dict[str, float] = {
    "WriteStage(hit)": 37.65,
    "WriteStage(miss)": 46.58,
    "ListenStage": 1.60,
    "ReadStage": 1.89,
    "HttpRecv": 1.29,
    "CacheStage": 1.89,
    "MissStage": 3.56,
}


def max_abs_error_pp(
    measured: Mapping[str, float], reference: Mapping[str, float]
) -> float:
    """Largest ``|measured - reference|`` over the reference's rows."""
    return max(
        abs(measured.get(name, 0.0) - share)
        for name, share in reference.items()
    )
