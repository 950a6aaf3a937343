"""Golden digests of the report files for both bundled fixtures and for
a small cohort of chronic clones.

Criterion 11 compares a run with a second run of the same code; these
pins compare it with recorded outputs, so a change to the kernel or the
writers that alters any byte of ``trace.csv``, ``delivery.csv``,
``outcomes.csv``, ``summary.txt`` or ``runs.csv`` fails here. Update a
digest only together with an intended change of the outputs.
"""

import hashlib
import json

import pytest

from carenets.cli import main

from helpers import CLONE_OFFSETS, FIXTURES, chronic_clones

MODES = {
    "replay": ["--mode", "replay"],
    "sample": ["--mode", "sample", "--seed", "42", "--runs", "3"],
}

DIGESTS = {
    ("acute_acl", "replay"): {
        "delivery.csv":
            "529e840b7b58f1b3d76727386f9f1cfe818d0fcb0ec50d5ae4639ac852380d6e",
        "outcomes.csv":
            "c034a16d8d47c62e3dfb102b0acfe8727bb85897c2cad8a088f376f70d30eed2",
        "summary.txt":
            "4ef2362e7378cdcbb6ea953db1c1085cd0581d365f078eb72ed1bc26a659b2f8",
        "trace.csv":
            "e745ae16af8359aeb385fd5dffd4184e2dc6130ba54b62c46ed082601039a3cf",
    },
    ("acute_acl", "sample"): {
        "run_000/delivery.csv":
            "529e840b7b58f1b3d76727386f9f1cfe818d0fcb0ec50d5ae4639ac852380d6e",
        "run_000/outcomes.csv":
            "c034a16d8d47c62e3dfb102b0acfe8727bb85897c2cad8a088f376f70d30eed2",
        "run_000/summary.txt":
            "9ad4fc8e49a9ea2d53478455f2c5b431a468a53cca09101d9962158897c2c25b",
        "run_000/trace.csv":
            "e745ae16af8359aeb385fd5dffd4184e2dc6130ba54b62c46ed082601039a3cf",
        "run_001/delivery.csv":
            "529e840b7b58f1b3d76727386f9f1cfe818d0fcb0ec50d5ae4639ac852380d6e",
        "run_001/outcomes.csv":
            "c034a16d8d47c62e3dfb102b0acfe8727bb85897c2cad8a088f376f70d30eed2",
        "run_001/summary.txt":
            "b2d480674fc9b09bde6808f72cd0625d198dedb1eaed7ba7832d56434b1861fc",
        "run_001/trace.csv":
            "e745ae16af8359aeb385fd5dffd4184e2dc6130ba54b62c46ed082601039a3cf",
        "run_002/delivery.csv":
            "529e840b7b58f1b3d76727386f9f1cfe818d0fcb0ec50d5ae4639ac852380d6e",
        "run_002/outcomes.csv":
            "c034a16d8d47c62e3dfb102b0acfe8727bb85897c2cad8a088f376f70d30eed2",
        "run_002/summary.txt":
            "69545c0997f7f6d9f4e10db0406ca43536feba6bed09d909bcda6135104c7aa5",
        "run_002/trace.csv":
            "e745ae16af8359aeb385fd5dffd4184e2dc6130ba54b62c46ed082601039a3cf",
        "runs.csv":
            "2c3ff6e8583b8680c855b21de437f530e12b1018e6c6cf9439a5cb7180782554",
        "summary.txt":
            "93b332fb97076011693c4691785d0f4f3219ccd0c3454ca8548f9a8129d3c4ea",
    },
    ("chronic_neuro_oncology", "replay"): {
        "delivery.csv":
            "3568fd7a5c75765df2677ea1c5a323ee3550ff35cec8835f0338a41131ee6570",
        "outcomes.csv":
            "1f50dfad10f8f0dc462b7b4df46a5a64fba844ee9047ec4cdd8c37f59fd59627",
        "summary.txt":
            "1e78ba1c9b9940e00c21cc4860c4cbe0cf63f3aa538fa6bf9c209161fa0318d6",
        "trace.csv":
            "712cbd89e00600810e50e30aefc0e0b9b84ff04c7e1b1033c65fa2f1f9dc4aa4",
    },
    ("chronic_neuro_oncology", "sample"): {
        "run_000/delivery.csv":
            "3568fd7a5c75765df2677ea1c5a323ee3550ff35cec8835f0338a41131ee6570",
        "run_000/outcomes.csv":
            "14bab8678a1f14898374cec91506bd4f9a28887ed131228a0275530aee930941",
        "run_000/summary.txt":
            "f5e2c0437cd8a23f0ce1f1f258df0f5bc5bcd228f03b0b0965c447534861f39e",
        "run_000/trace.csv":
            "cfdc3201f327993884d42e6b94b1d29afe8e6c7b2b62afa59f46e1cfc89b4ac8",
        "run_001/delivery.csv":
            "3568fd7a5c75765df2677ea1c5a323ee3550ff35cec8835f0338a41131ee6570",
        "run_001/outcomes.csv":
            "821a0271b9131227be0c657815c877237600bae900b8b2980ab60515616e3ab3",
        "run_001/summary.txt":
            "1550f9fb38a48060f85ea311165e94b7335e22a85dab68a2fe3cddc21b9ee32c",
        "run_001/trace.csv":
            "8ca540a906fa862cc58fb6eb494136a16fc9042512da33f33446591c67fb8fe1",
        "run_002/delivery.csv":
            "3568fd7a5c75765df2677ea1c5a323ee3550ff35cec8835f0338a41131ee6570",
        "run_002/outcomes.csv":
            "7fe803d9ccd69e3715857ede2efb828293cbf519ab55394cc9c171d68e143836",
        "run_002/summary.txt":
            "0250ca409544f8bd80165cdabdbfbe748d5abf832ede9df018ce8c1d1cab6eb4",
        "run_002/trace.csv":
            "65c23c134d7ed5104552cd2f8ca3f4d046892ffc6346b5df7112b6b39419b7eb",
        "runs.csv":
            "e09c1b16b76b9c99b4446c1b30945bf26bba13e102e4000dd61acb8059166f89",
        "summary.txt":
            "a5c6bee2b3472477db18dddb7604e16477dcde8d8a8132cd19eeeabd38e0a79b",
    },
}


@pytest.mark.parametrize("fixture, mode", DIGESTS,
                         ids=[f"{f}-{m}" for f, m in DIGESTS])
def test_report_files_match_golden_digests(fixture, mode, tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", str(FIXTURES / f"{fixture}.json"),
                 *MODES[mode], "--out", str(out)]) == 0
    assert report_digests(out) == DIGESTS[fixture, mode]


def report_digests(out):
    return {path.relative_to(out).as_posix():
                hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}


COHORT_DIGESTS = {
    "delivery.csv":
        "eb350eea440a4d634ae375d369a741a842112dc13369c2180060abf3d3bd6261",
    "outcomes.csv":
        "275d94a00c3d6e3f994111eabaa6c4688012d217f576ce3a73f50b448c4af77d",
    "summary.txt":
        "b9f2f82d1103e6d5b14044df18227a4260839cba5e9cdd8087b95a3a72ba9efb",
    "trace.csv":
        "78d56bc87bf37fb2d539c9dc017645b4edbfa6c8095643bc78fa49908c38e9a3",
}


def test_cohort_report_files_match_golden_digests(tmp_path):
    path = tmp_path / "cohort.json"
    path.write_text(json.dumps(chronic_clones(CLONE_OFFSETS)),
                    encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--mode", "replay",
                 "--out", str(out)]) == 0
    assert report_digests(out) == COHORT_DIGESTS
