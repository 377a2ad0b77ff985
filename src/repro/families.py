"""The campaign families a suite cell can belong to, without importing
the suite layer.

:mod:`repro.suite.spec` validates cells against this one tuple, and the
CLI's ``--only`` choices read it from here, so ``repro submit`` starts
without loading :mod:`repro.suite`.
"""

__all__ = ["FAMILIES"]

#: campaign families a cell can belong to.  ``design`` cells evaluate a
#: DesignReport (analytic, or empirical with ``policy["empirical"]``);
#: the rest run the matching :class:`~repro.scenarios.CampaignEngine`
#: campaign.
FAMILIES = ("design", "decoder", "scheme", "transient", "march")
