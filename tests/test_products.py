"""Every data product of the two shipped configs, pinned at small sizes.

``products.py --small`` writes them all; each is pinned by its
``rounded_digest``, taken with every float printed to 12 significant digits,
so that a last-bit difference in a platform's libm rarely trips a pin while
any real change does.  Exact byte identity between two builds is the job of
``python tests/products.py --compare``.
"""

from products import rounded_digest, write_products

# The one place the products are pinned: a deliberate product change re-pins
# here, with the old and new digests in CHANGES.md.
PRODUCT_PINS = {
    "ideal/chsh-analytic/chsh.json": "f32c6d15332c59f3",
    "ideal/chsh-montecarlo/chsh.json": "f4f16dc76bffc45b",
    "ideal/correlate/correlate.json": "07060a9ec88ed5a0",
    "ideal/correlate/histogram.csv": "2719bfb2a4492991",
    "ideal/crossover/crossover.csv": "aecaec76a90eec8e",
    "ideal/crossover/crossover.json": "4a1546f43ccf662d",
    "ideal/fringe-scan-analytic/fringe-scan.csv": "5ede10446d53d497",
    "ideal/fringe-scan-analytic/fringe-scan.json": "9d44b1ce7f7fcf29",
    "ideal/fringe-scan-montecarlo/fringe-scan.csv": "ab8f4726e3cc11db",
    "ideal/fringe-scan-montecarlo/fringe-scan.json": "fef37086bcb58d84",
    "ideal/local-scan/local-scan.csv": "0f58b22703597d24",
    "ideal/local-scan/local-scan.json": "3c7640d289774bf5",
    "ideal/pump-sweep-analytic/pump-sweep.csv": "3baf6f048c4585fe",
    "ideal/pump-sweep-analytic/pump-sweep.json": "0427fd89d06d992b",
    "ideal/pump-sweep-montecarlo/pump-sweep.csv": "648d78a47ce3dd9f",
    "ideal/pump-sweep-montecarlo/pump-sweep.json": "84370ffe003805b9",
    "ideal/tau-decay-analytic/tau-decay.csv": "268ee3994139670b",
    "ideal/tau-decay-analytic/tau-decay.json": "72dd4a4e5ebcb73b",
    "ideal/tau-decay-montecarlo/tau-decay.csv": "dacc4f865c31e80c",
    "ideal/tau-decay-montecarlo/tau-decay.json": "71bf019265e67b16",
    "ideal/timetags/timetags.dat": "1fcec865a3215c4d",
    "pump_jitter/chsh-analytic/chsh.json": "b7a22b1404c6d84b",
    "pump_jitter/chsh-montecarlo/chsh.json": "9534ef22b4941786",
    "pump_jitter/correlate/correlate.json": "babd8a9f34d936f9",
    "pump_jitter/correlate/histogram.csv": "dc71b789e77ba51c",
    "pump_jitter/crossover/crossover.csv": "7664f20b0820d96e",
    "pump_jitter/crossover/crossover.json": "9e67af7eca95bd0a",
    "pump_jitter/fringe-scan-analytic/fringe-scan.csv": "826b7458d3d1e971",
    "pump_jitter/fringe-scan-analytic/fringe-scan.json": "a7571515abd661e5",
    "pump_jitter/fringe-scan-montecarlo/fringe-scan.csv": "3c62f92b83c09d55",
    "pump_jitter/fringe-scan-montecarlo/fringe-scan.json": "9f705a33aa1e75d4",
    "pump_jitter/local-scan/local-scan.csv": "22959694fa44b92a",
    "pump_jitter/local-scan/local-scan.json": "820b7375d467c336",
    "pump_jitter/pump-sweep-analytic/pump-sweep.csv": "0eb9d583ccc87d04",
    "pump_jitter/pump-sweep-analytic/pump-sweep.json": "f15c50a65d24bc0b",
    "pump_jitter/pump-sweep-montecarlo/pump-sweep.csv": "4691bb844f287499",
    "pump_jitter/pump-sweep-montecarlo/pump-sweep.json": "faf93d4027990eff",
    "pump_jitter/tau-decay-analytic/tau-decay.csv": "c620c6c36fabb3e5",
    "pump_jitter/tau-decay-analytic/tau-decay.json": "3e119cb2e86d5fcf",
    "pump_jitter/tau-decay-montecarlo/tau-decay.csv": "ee9d26982293d4e2",
    "pump_jitter/tau-decay-montecarlo/tau-decay.json": "eba20e69755621cf",
    "pump_jitter/timetags/timetags.dat": "87e6d11565a0157b",
}


def test_every_product_matches_its_pin(tmp_path):
    manifest = write_products(tmp_path, small=True)
    digests = {name: rounded_digest(tmp_path / name) for name in manifest}
    assert digests == PRODUCT_PINS
