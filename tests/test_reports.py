"""Pinned digests of a fixed set of CLI reports.

Each digest is the sha256 of one command line's exit code, stdout and
stderr.  The set covers every integral route and form at n = 1..5 in all
three formats, the lgv route with integer and symbolic weights (and the
usage error for weights that give a non-integer count), the asm and nilp
routes at n = 1..7 in all three formats (nilp with two statistic pairs),
and every verify suite at seed 11 in all three formats.  The benchmark's
own sizes are pinned too: lgv at n = 7, integral-I with the rational --a
vectors of benchmark seeds 0 and 7 (at n = 5, and extended by one entry at
n = 6), in all three formats, and doubly-refined at n = 6 and 1..6 in json
and pretty.  The asm, nilp and doubly-refined digests at n = 6 and 7 were
recorded from the brute enumeration those routes ran before their DPs.  A
change that keeps these digests keeps the reports byte-identical.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

from asmpp.cli import main
from asmpp.verify import SUITES

RATIONAL_A = ["-8/5", "1", "3/2", "3/7"]
# the --a vectors that perfbench/workloads.py draws at seeds 0 and 7
BENCH_A = [RATIONAL_A, ["-5/3", "-5/4", "4/5", "-7/3"]]


def report_cases():
    cases = []
    for n in range(1, 6):
        variants = [("integral-A",), ("integral-U", "--form", "raw"),
                    ("integral-U", "--form", "after-u1"), ("integral-I",),
                    ("integral-I", "--a", "y(1-y)")]
        if n >= 2:
            variants.append(("integral-I", "--a=" + ",".join(RATIONAL_A[:n - 1])))
        for v in variants:
            for fmt in ("json", "csv", "pretty"):
                cases.append(("genfun", v[0], "--n", str(n)) + v[1:] + ("--format", fmt))
    for n in range(1, 7):
        integers = ",".join(str(k % 3 + 1) for k in range(n))
        symbols = ",".join(["t", "s"][:n] + ["1"] * (n - 2))
        for weights in (None, integers, symbols):
            extra = () if weights is None else ("--weights", weights)
            for fmt in ("json", "csv"):
                cases.append(("genfun", "lgv", "--n", str(n)) + extra + ("--format", fmt))
    cases.append(("genfun", "lgv", "--n", "3", "--weights", "1/3,1/3,1"))
    bench = [("lgv", "--n", "7"), ("lgv", "--n", "7", "--weights", "t,s,1,1,1,1,1"),
             ("lgv", "--n", "7", "--weights", "1,2,3,1,2,3,1")]
    # seed 0's vector at n = 5 is RATIONAL_A, pinned above
    bench.append(("integral-I", "--n", "5", "--a=" + ",".join(BENCH_A[1])))
    for avec in BENCH_A:
        bench.append(("integral-I", "--n", "6", "--a=" + ",".join(avec + ["2/9"])))
    for v in bench:
        for fmt in ("json", "csv", "pretty"):
            cases.append(("genfun",) + v + ("--format", fmt))
    for n in range(1, 8):
        variants = [("asm-tilde",), ("asm-reversed",),
                    ("nilp", "--i", "0", "--j", "1"), ("nilp", "--i", "1", "--j", str(n))]
        for v in variants:
            for fmt in ("json", "csv", "pretty"):
                cases.append(("genfun", v[0], "--n", str(n)) + v[1:] + ("--format", fmt))
    for suite in SUITES:
        for fmt in ("json", "csv", "pretty"):
            cases.append(("verify", suite, "--seed", "11", "--format", fmt))
    for n_range in ("6", "1..6"):
        for fmt in ("json", "pretty"):
            cases.append(("verify", "doubly-refined", "--n", n_range, "--format", fmt))
    return cases


def report_digest(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    text = f"{code}\n{out.getvalue()}\n{err.getvalue()}"
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_case_has_a_digest():
    assert sorted(" ".join(c) for c in report_cases()) == sorted(DIGESTS)


def test_reports_match_their_digests():
    changed = [" ".join(argv) for argv in report_cases()
               if report_digest(argv) != DIGESTS[" ".join(argv)]]
    assert changed == []


DIGESTS = {
    "genfun integral-A --n 1 --format json":
        "446e6d84ec239e47297b220b9b88d069f6987dde055fa23a053b1a6d79b154f2",
    "genfun integral-A --n 1 --format csv":
        "6222bcec8aedde6ac7fe91a9b517f7f21df5bc360aba05873291cadc5bf422cf",
    "genfun integral-A --n 1 --format pretty":
        "7efab98832ce162f7b3edfa3b1547133710479878ad26360fc45382a80f63a75",
    "genfun integral-U --n 1 --form raw --format json":
        "d656d7e9208ec16985c9e7ee6a4b0408c330551875d69fcdc2b42dbb7130f796",
    "genfun integral-U --n 1 --form raw --format csv":
        "6222bcec8aedde6ac7fe91a9b517f7f21df5bc360aba05873291cadc5bf422cf",
    "genfun integral-U --n 1 --form raw --format pretty":
        "62b40fcad0f2da70029b1b317961ec98b5fad9f9715e775f37ef01e9ad84c53f",
    "genfun integral-U --n 1 --form after-u1 --format json":
        "d656d7e9208ec16985c9e7ee6a4b0408c330551875d69fcdc2b42dbb7130f796",
    "genfun integral-U --n 1 --form after-u1 --format csv":
        "6222bcec8aedde6ac7fe91a9b517f7f21df5bc360aba05873291cadc5bf422cf",
    "genfun integral-U --n 1 --form after-u1 --format pretty":
        "62b40fcad0f2da70029b1b317961ec98b5fad9f9715e775f37ef01e9ad84c53f",
    "genfun integral-I --n 1 --format json":
        "468b64921c1c05ac88b3a29b106c8f4582d5da96e1a5b02d987e37ff22e80c40",
    "genfun integral-I --n 1 --format csv":
        "6222bcec8aedde6ac7fe91a9b517f7f21df5bc360aba05873291cadc5bf422cf",
    "genfun integral-I --n 1 --format pretty":
        "39ee3fea8301a841634472ca9ab20688ec0e1c0df7ccce2eb08381c5e29b26ee",
    "genfun integral-I --n 1 --a y(1-y) --format json":
        "468b64921c1c05ac88b3a29b106c8f4582d5da96e1a5b02d987e37ff22e80c40",
    "genfun integral-I --n 1 --a y(1-y) --format csv":
        "6222bcec8aedde6ac7fe91a9b517f7f21df5bc360aba05873291cadc5bf422cf",
    "genfun integral-I --n 1 --a y(1-y) --format pretty":
        "39ee3fea8301a841634472ca9ab20688ec0e1c0df7ccce2eb08381c5e29b26ee",
    "genfun integral-A --n 2 --format json":
        "27e1dbcd5d4164b2ccb5c16cc0e7d32606ab165a34723c5c583105a6d1c9c354",
    "genfun integral-A --n 2 --format csv":
        "a0fe4dc170158f4e8d65b4d739d6e99adc1a887b384ca3af9e8495096eb77903",
    "genfun integral-A --n 2 --format pretty":
        "da4a4cce9ef55f6095b456f7de634954382bf20bfd4bc884799a5dabc5f2a5a9",
    "genfun integral-U --n 2 --form raw --format json":
        "3dee2cb89d6527c5bbed9bfc3983da1e89cee77f0f218819ccb8dabee5de9af1",
    "genfun integral-U --n 2 --form raw --format csv":
        "a0fe4dc170158f4e8d65b4d739d6e99adc1a887b384ca3af9e8495096eb77903",
    "genfun integral-U --n 2 --form raw --format pretty":
        "b0e8a47a989b7c188c727b43d7d29ab40d45776a1221bbe3b4c0d2e45a49c6d7",
    "genfun integral-U --n 2 --form after-u1 --format json":
        "3dee2cb89d6527c5bbed9bfc3983da1e89cee77f0f218819ccb8dabee5de9af1",
    "genfun integral-U --n 2 --form after-u1 --format csv":
        "a0fe4dc170158f4e8d65b4d739d6e99adc1a887b384ca3af9e8495096eb77903",
    "genfun integral-U --n 2 --form after-u1 --format pretty":
        "b0e8a47a989b7c188c727b43d7d29ab40d45776a1221bbe3b4c0d2e45a49c6d7",
    "genfun integral-I --n 2 --format json":
        "2f3683b213fbfc1f46d148e5cbbcb9816d7d1624525ca0bcddead31a58a32106",
    "genfun integral-I --n 2 --format csv":
        "a0fe4dc170158f4e8d65b4d739d6e99adc1a887b384ca3af9e8495096eb77903",
    "genfun integral-I --n 2 --format pretty":
        "f83dd65ecb7859a38343727f9a7933260e12fc83b2219f4317ef405b3eea73d2",
    "genfun integral-I --n 2 --a y(1-y) --format json":
        "2f3683b213fbfc1f46d148e5cbbcb9816d7d1624525ca0bcddead31a58a32106",
    "genfun integral-I --n 2 --a y(1-y) --format csv":
        "a0fe4dc170158f4e8d65b4d739d6e99adc1a887b384ca3af9e8495096eb77903",
    "genfun integral-I --n 2 --a y(1-y) --format pretty":
        "f83dd65ecb7859a38343727f9a7933260e12fc83b2219f4317ef405b3eea73d2",
    "genfun integral-I --n 2 --a=-8/5 --format json":
        "2f3683b213fbfc1f46d148e5cbbcb9816d7d1624525ca0bcddead31a58a32106",
    "genfun integral-I --n 2 --a=-8/5 --format csv":
        "a0fe4dc170158f4e8d65b4d739d6e99adc1a887b384ca3af9e8495096eb77903",
    "genfun integral-I --n 2 --a=-8/5 --format pretty":
        "f83dd65ecb7859a38343727f9a7933260e12fc83b2219f4317ef405b3eea73d2",
    "genfun integral-A --n 3 --format json":
        "949441c664ea93f6845fd038f7146d5098fde5da1dd9a2325fb959557cbdb486",
    "genfun integral-A --n 3 --format csv":
        "a0fbb736330bb854e46e7a135424776f8abcd6222454ff388656eb5e39200cac",
    "genfun integral-A --n 3 --format pretty":
        "d84394eace1c24ad3f2100f589afdf53d55b6ba5ea83a4cf5e3aa30493ba82a4",
    "genfun integral-U --n 3 --form raw --format json":
        "df45772c2cf5aa34a4ceb2ee800464132615462f56a11f628695f3c2c6af0958",
    "genfun integral-U --n 3 --form raw --format csv":
        "a0fbb736330bb854e46e7a135424776f8abcd6222454ff388656eb5e39200cac",
    "genfun integral-U --n 3 --form raw --format pretty":
        "8be9901f7a9e87813e59450a2511c45a73f483ad6f7406ef4cdb96c8aebd8f53",
    "genfun integral-U --n 3 --form after-u1 --format json":
        "df45772c2cf5aa34a4ceb2ee800464132615462f56a11f628695f3c2c6af0958",
    "genfun integral-U --n 3 --form after-u1 --format csv":
        "a0fbb736330bb854e46e7a135424776f8abcd6222454ff388656eb5e39200cac",
    "genfun integral-U --n 3 --form after-u1 --format pretty":
        "8be9901f7a9e87813e59450a2511c45a73f483ad6f7406ef4cdb96c8aebd8f53",
    "genfun integral-I --n 3 --format json":
        "2cedca55b317041cf76f9f952b06125086178d8c65f7b107e79543ac919155e0",
    "genfun integral-I --n 3 --format csv":
        "a0fbb736330bb854e46e7a135424776f8abcd6222454ff388656eb5e39200cac",
    "genfun integral-I --n 3 --format pretty":
        "769f972c50422ae5f9d4bb83b6a732b69e0b9b3372651f45ba24ac31c6d77f02",
    "genfun integral-I --n 3 --a y(1-y) --format json":
        "2cedca55b317041cf76f9f952b06125086178d8c65f7b107e79543ac919155e0",
    "genfun integral-I --n 3 --a y(1-y) --format csv":
        "a0fbb736330bb854e46e7a135424776f8abcd6222454ff388656eb5e39200cac",
    "genfun integral-I --n 3 --a y(1-y) --format pretty":
        "769f972c50422ae5f9d4bb83b6a732b69e0b9b3372651f45ba24ac31c6d77f02",
    "genfun integral-I --n 3 --a=-8/5,1 --format json":
        "2cedca55b317041cf76f9f952b06125086178d8c65f7b107e79543ac919155e0",
    "genfun integral-I --n 3 --a=-8/5,1 --format csv":
        "a0fbb736330bb854e46e7a135424776f8abcd6222454ff388656eb5e39200cac",
    "genfun integral-I --n 3 --a=-8/5,1 --format pretty":
        "769f972c50422ae5f9d4bb83b6a732b69e0b9b3372651f45ba24ac31c6d77f02",
    "genfun integral-A --n 4 --format json":
        "b647d374c03753a908aace18ac57edcba47d0e230ec163607920ad191aad2684",
    "genfun integral-A --n 4 --format csv":
        "27b6ac729466229bdc164deed2a1abf2bd9951201074f9aee4d85a2661d5ae9e",
    "genfun integral-A --n 4 --format pretty":
        "832ef48e06c02db6d5c3ad412333ac76dd91b6901c4f7598d0196b25f4eada39",
    "genfun integral-U --n 4 --form raw --format json":
        "68ef4fd87a58c47947099fef7716205fe991cc60219fb241310edd8429c3436b",
    "genfun integral-U --n 4 --form raw --format csv":
        "27b6ac729466229bdc164deed2a1abf2bd9951201074f9aee4d85a2661d5ae9e",
    "genfun integral-U --n 4 --form raw --format pretty":
        "6dce3d2c5944b99ee38cea662fd31c17a7e1d3124abeb8c572f31f20eaecff65",
    "genfun integral-U --n 4 --form after-u1 --format json":
        "68ef4fd87a58c47947099fef7716205fe991cc60219fb241310edd8429c3436b",
    "genfun integral-U --n 4 --form after-u1 --format csv":
        "27b6ac729466229bdc164deed2a1abf2bd9951201074f9aee4d85a2661d5ae9e",
    "genfun integral-U --n 4 --form after-u1 --format pretty":
        "6dce3d2c5944b99ee38cea662fd31c17a7e1d3124abeb8c572f31f20eaecff65",
    "genfun integral-I --n 4 --format json":
        "ac45592b65f1aa2e3696655cd9cf827e578396977dc61e3aeaeb7de3797566a9",
    "genfun integral-I --n 4 --format csv":
        "27b6ac729466229bdc164deed2a1abf2bd9951201074f9aee4d85a2661d5ae9e",
    "genfun integral-I --n 4 --format pretty":
        "db1b75d21f66b88934030a939d73242f49b8dc578856d3eb0fdd59fbe8941334",
    "genfun integral-I --n 4 --a y(1-y) --format json":
        "ac45592b65f1aa2e3696655cd9cf827e578396977dc61e3aeaeb7de3797566a9",
    "genfun integral-I --n 4 --a y(1-y) --format csv":
        "27b6ac729466229bdc164deed2a1abf2bd9951201074f9aee4d85a2661d5ae9e",
    "genfun integral-I --n 4 --a y(1-y) --format pretty":
        "db1b75d21f66b88934030a939d73242f49b8dc578856d3eb0fdd59fbe8941334",
    "genfun integral-I --n 4 --a=-8/5,1,3/2 --format json":
        "ac45592b65f1aa2e3696655cd9cf827e578396977dc61e3aeaeb7de3797566a9",
    "genfun integral-I --n 4 --a=-8/5,1,3/2 --format csv":
        "27b6ac729466229bdc164deed2a1abf2bd9951201074f9aee4d85a2661d5ae9e",
    "genfun integral-I --n 4 --a=-8/5,1,3/2 --format pretty":
        "db1b75d21f66b88934030a939d73242f49b8dc578856d3eb0fdd59fbe8941334",
    "genfun integral-A --n 5 --format json":
        "9a939ecb7d46fc6b3f774d46932598d2f9b8a22cad06a3207a37cbddbb918485",
    "genfun integral-A --n 5 --format csv":
        "cde7c6fd20d1d3190dc848969b055fff8c5f4a84bda71e5e068fcf085c92dc9d",
    "genfun integral-A --n 5 --format pretty":
        "6544d47d7053f474a8ce66725dd8f4cae201ccb59534b6b3bbf3c6f94f1bb05a",
    "genfun integral-U --n 5 --form raw --format json":
        "67cf94db317934ba45a80f7efa0a0a82a22b190384939fa8e83b065a03885081",
    "genfun integral-U --n 5 --form raw --format csv":
        "cde7c6fd20d1d3190dc848969b055fff8c5f4a84bda71e5e068fcf085c92dc9d",
    "genfun integral-U --n 5 --form raw --format pretty":
        "c3d2abff62768cca96b610b0db3beaec9156307851c67efaf3a57a541a3c8ee7",
    "genfun integral-U --n 5 --form after-u1 --format json":
        "67cf94db317934ba45a80f7efa0a0a82a22b190384939fa8e83b065a03885081",
    "genfun integral-U --n 5 --form after-u1 --format csv":
        "cde7c6fd20d1d3190dc848969b055fff8c5f4a84bda71e5e068fcf085c92dc9d",
    "genfun integral-U --n 5 --form after-u1 --format pretty":
        "c3d2abff62768cca96b610b0db3beaec9156307851c67efaf3a57a541a3c8ee7",
    "genfun integral-I --n 5 --format json":
        "36a4ebf7d1fc6f8c6dc9583ae49acd79dd41e8c17e067d48c45718b90792b2e5",
    "genfun integral-I --n 5 --format csv":
        "cde7c6fd20d1d3190dc848969b055fff8c5f4a84bda71e5e068fcf085c92dc9d",
    "genfun integral-I --n 5 --format pretty":
        "19d190ecdeab1af984aecd0c82de92620a577f637ed21a69ed4b992835f72478",
    "genfun integral-I --n 5 --a y(1-y) --format json":
        "36a4ebf7d1fc6f8c6dc9583ae49acd79dd41e8c17e067d48c45718b90792b2e5",
    "genfun integral-I --n 5 --a y(1-y) --format csv":
        "cde7c6fd20d1d3190dc848969b055fff8c5f4a84bda71e5e068fcf085c92dc9d",
    "genfun integral-I --n 5 --a y(1-y) --format pretty":
        "19d190ecdeab1af984aecd0c82de92620a577f637ed21a69ed4b992835f72478",
    "genfun integral-I --n 5 --a=-8/5,1,3/2,3/7 --format json":
        "36a4ebf7d1fc6f8c6dc9583ae49acd79dd41e8c17e067d48c45718b90792b2e5",
    "genfun integral-I --n 5 --a=-8/5,1,3/2,3/7 --format csv":
        "cde7c6fd20d1d3190dc848969b055fff8c5f4a84bda71e5e068fcf085c92dc9d",
    "genfun integral-I --n 5 --a=-8/5,1,3/2,3/7 --format pretty":
        "19d190ecdeab1af984aecd0c82de92620a577f637ed21a69ed4b992835f72478",
    "genfun lgv --n 1 --format json":
        "f14bb05f0e88e72dec746e242920bee895b30febbd9585de296032dd9db9698e",
    "genfun lgv --n 1 --format csv":
        "6222bcec8aedde6ac7fe91a9b517f7f21df5bc360aba05873291cadc5bf422cf",
    "genfun lgv --n 1 --weights 1 --format json":
        "f14bb05f0e88e72dec746e242920bee895b30febbd9585de296032dd9db9698e",
    "genfun lgv --n 1 --weights 1 --format csv":
        "6222bcec8aedde6ac7fe91a9b517f7f21df5bc360aba05873291cadc5bf422cf",
    "genfun lgv --n 1 --weights t --format json":
        "2166ea30c871aa3d0a2a37b2ed322254940df4308cca198395e58b576181100c",
    "genfun lgv --n 1 --weights t --format csv":
        "90bf508ae940efed1827ef928157dd708b1b48fb72f5af2dd53281605b9a3bd6",
    "genfun lgv --n 2 --format json":
        "bb1d78f71080c269991d16a2535f795eaaeaa93996ad1950e40c185f9c22eb17",
    "genfun lgv --n 2 --format csv":
        "608e8f0f3cbb39cd0de5dfd07f19c5f5f1db31a98758d3bfa340865943326b40",
    "genfun lgv --n 2 --weights 1,2 --format json":
        "90845b6e5d58750413189c27d42f29d878efd2fe1a19a2a667c4c02d8c641a7f",
    "genfun lgv --n 2 --weights 1,2 --format csv":
        "9eafaeaeeefcdf9c9c1b821c3a7e93450f27a9621e7cb717c255448ca9fb5f6b",
    "genfun lgv --n 2 --weights t,s --format json":
        "8e85f75e339a4b56c8b702e44dbb5c73f434120497ed8ede37fee08e9192116e",
    "genfun lgv --n 2 --weights t,s --format csv":
        "ab3332dfe27a690f625bc791ec6d898ebbfeeeb5b66b45b4ce6c40dd2a639ca6",
    "genfun lgv --n 3 --format json":
        "97209caa540f853eda89309c375e383df4d45b8e5b5ce7f4d65ebc8ff812fa0b",
    "genfun lgv --n 3 --format csv":
        "9a1104bf5782a2bdcc280f6166f9e08578d34616f89fc75b81000929f5b7dcea",
    "genfun lgv --n 3 --weights 1,2,3 --format json":
        "b9c1eafc2f04078b581ca00eab80c28c9c474551578f818cf32a0980694f5862",
    "genfun lgv --n 3 --weights 1,2,3 --format csv":
        "4bf33b8d67468b84838f2d8fbfdca33ee376c67f7c61d5844b37e8369d3dd0c9",
    "genfun lgv --n 3 --weights t,s,1 --format json":
        "a8b5608c2ee22534b86a7b7400de305572a16f940e23ca1b15a7f6439e7aca7d",
    "genfun lgv --n 3 --weights t,s,1 --format csv":
        "939dfbf6a89b9868ff5f8c42ea4e73cce72dc085a1327ca0d680429b85a32a77",
    "genfun lgv --n 4 --format json":
        "273037bbb11329de8c07abdf7265aa9d7b768cbbfe7ebcb537106e73ae36f977",
    "genfun lgv --n 4 --format csv":
        "10edb0baac5bbf217feb3aaf60b3f1e122f8f2c58cc9179772151ae868158bf5",
    "genfun lgv --n 4 --weights 1,2,3,1 --format json":
        "54650219ca27736572df1908d606e76b7ddb10dff0eadc954e5f9078ffbfbfb2",
    "genfun lgv --n 4 --weights 1,2,3,1 --format csv":
        "9f3b8d4d2ef9d3cbe728a7b46d7f31ffd4f6801340ccbf11a83d262881adc5a1",
    "genfun lgv --n 4 --weights t,s,1,1 --format json":
        "7d6445879c727297401b5f080406f0c7084e3c12eeb7d3002fa3044098aaffc2",
    "genfun lgv --n 4 --weights t,s,1,1 --format csv":
        "2bbffc95a198ecd92fde20d8a72c174f20ca9d4c833da25bd59bc743a58760bd",
    "genfun lgv --n 5 --format json":
        "fec96a27a58f33922aae732925a1c331034305f446d9197821c253343c0a72e3",
    "genfun lgv --n 5 --format csv":
        "25e895ae26e3bb2d156edc0a239cdf39bf4e7ff07796d307e9f3175f562c183d",
    "genfun lgv --n 5 --weights 1,2,3,1,2 --format json":
        "1aaa8ab37878bd6b5b105d3e8da0918f70dc4343c963dab9f25c00f8714556e7",
    "genfun lgv --n 5 --weights 1,2,3,1,2 --format csv":
        "dcf9d90d55be4fbc3849f93e1551e021965bae0758ca17524b49b0ce96d93370",
    "genfun lgv --n 5 --weights t,s,1,1,1 --format json":
        "c8edc83b66177ee853bf535e8d0453e274da33370de1e8ae35139dbd15a4f7f3",
    "genfun lgv --n 5 --weights t,s,1,1,1 --format csv":
        "c5bc7106c0cbebdbaa61e31c70565e7cc8cb69c2ee46f506c71e71aea7fc46e4",
    "genfun lgv --n 6 --format json":
        "3485244e3b075c6db206734d9b3a4f171cbfbc8746dbbaa57a9b89543ec0e8bc",
    "genfun lgv --n 6 --format csv":
        "3484bb9c1df13f4574d79640943079e2cfd2a8078d7cc4c6a17d64c27d93ff48",
    "genfun lgv --n 6 --weights 1,2,3,1,2,3 --format json":
        "59fefb3028c694b18b1ef8dad9dbaf9466d8754d7aa7358edf69bb403b0680ea",
    "genfun lgv --n 6 --weights 1,2,3,1,2,3 --format csv":
        "c0b8a0d21b0301257635a2de9f03079e3ab814f3322f610053526d71c7ddef2e",
    "genfun lgv --n 6 --weights t,s,1,1,1,1 --format json":
        "49404fdf3c6ec48ff8af0e967d011f747f9260f11954ff2508cfbbbe0ac30777",
    "genfun lgv --n 6 --weights t,s,1,1,1,1 --format csv":
        "431c71980f53737f135fc0f8827bc7e2714efcb42fa50968e992a0830ef3effd",
    "genfun lgv --n 3 --weights 1/3,1/3,1":
        "98134f077cd8f02e9aa2105fa6c8a6464ee18f7d82c246d164c1fd7698469490",
    "genfun asm-tilde --n 1 --format json":
        "a5f3c38e1ab782099cb5c16917ff5d25eff143ffef6bc984143e1d8685113a64",
    "genfun asm-tilde --n 1 --format csv":
        "6222bcec8aedde6ac7fe91a9b517f7f21df5bc360aba05873291cadc5bf422cf",
    "genfun asm-tilde --n 1 --format pretty":
        "16263987a16917e79630f807ee47c2fed5ebadb39f45832588607a28c68c2e29",
    "genfun asm-reversed --n 1 --format json":
        "9f7eaecc2e0e24e66cab947590eb59ea57515b5b27c62094ebe81a8e14d8d723",
    "genfun asm-reversed --n 1 --format csv":
        "6222bcec8aedde6ac7fe91a9b517f7f21df5bc360aba05873291cadc5bf422cf",
    "genfun asm-reversed --n 1 --format pretty":
        "8c7b8e642fef1c7f72d720d683fb73ae3870ca2b0c1a849b128c18552433d362",
    "genfun nilp --n 1 --i 0 --j 1 --format json":
        "eadf652da1d826d9108828bc25fe484eebdf001c9054b0921034efe2065567b1",
    "genfun nilp --n 1 --i 0 --j 1 --format csv":
        "6222bcec8aedde6ac7fe91a9b517f7f21df5bc360aba05873291cadc5bf422cf",
    "genfun nilp --n 1 --i 0 --j 1 --format pretty":
        "ff904220d8e5dd3940bcef698e74625e126ef576c2e01af6bf751484af6bd95f",
    "genfun nilp --n 1 --i 1 --j 1 --format json":
        "eadf652da1d826d9108828bc25fe484eebdf001c9054b0921034efe2065567b1",
    "genfun nilp --n 1 --i 1 --j 1 --format csv":
        "6222bcec8aedde6ac7fe91a9b517f7f21df5bc360aba05873291cadc5bf422cf",
    "genfun nilp --n 1 --i 1 --j 1 --format pretty":
        "ff904220d8e5dd3940bcef698e74625e126ef576c2e01af6bf751484af6bd95f",
    "genfun asm-tilde --n 2 --format json":
        "f60bfcde62ada5af1173dba7a27f0e3290c6b018fc791612fa8e5f528d8c076a",
    "genfun asm-tilde --n 2 --format csv":
        "a0fe4dc170158f4e8d65b4d739d6e99adc1a887b384ca3af9e8495096eb77903",
    "genfun asm-tilde --n 2 --format pretty":
        "51de7e87267cdd3359083e078f8036dbe217f7128cfd736c71c072af20b74f44",
    "genfun asm-reversed --n 2 --format json":
        "35f45f64286218ab4b1680f8cc7f383a7f22faa83084df3534fadeeeb43bfd0c",
    "genfun asm-reversed --n 2 --format csv":
        "98ee11ab94e0395d515cfe73ea5c61c40ece9cc8990bb994651b1fa8439b2fc1",
    "genfun asm-reversed --n 2 --format pretty":
        "6c1f5386da579321fe40f7d4125e4b6dac9eb08e90ce5242d9530abeaf72dc3e",
    "genfun nilp --n 2 --i 0 --j 1 --format json":
        "7ccbff86fcb104c7cd250bae34c712771fe4a2697c72bd0afcaed592325424f2",
    "genfun nilp --n 2 --i 0 --j 1 --format csv":
        "a0fe4dc170158f4e8d65b4d739d6e99adc1a887b384ca3af9e8495096eb77903",
    "genfun nilp --n 2 --i 0 --j 1 --format pretty":
        "6ca4a3f459e0fa33cab7d7cb60b2eb191d95a499e03410801c86ea7b4bea4dea",
    "genfun nilp --n 2 --i 1 --j 2 --format json":
        "94deaf2fcca02749b16539d58e692aa95dc1c674112bdbeb56905a7b0ae9cab8",
    "genfun nilp --n 2 --i 1 --j 2 --format csv":
        "98ee11ab94e0395d515cfe73ea5c61c40ece9cc8990bb994651b1fa8439b2fc1",
    "genfun nilp --n 2 --i 1 --j 2 --format pretty":
        "9c780a5421458401bb3b738e2978a12d2968630f11dc3705322edaf1a616a771",
    "genfun asm-tilde --n 3 --format json":
        "d4fca15091fc2c0e527d48b075ce765c0f2f1ea7a2ffba002590c218c20941bd",
    "genfun asm-tilde --n 3 --format csv":
        "a0fbb736330bb854e46e7a135424776f8abcd6222454ff388656eb5e39200cac",
    "genfun asm-tilde --n 3 --format pretty":
        "c3ad6fef6bdd8daa13cbd53fee20d181f3e18075c970c799538063554b08264a",
    "genfun asm-reversed --n 3 --format json":
        "54b6897e551334b96d5b6fa1482d73b6eaba97729d728a038555cbb1f020164f",
    "genfun asm-reversed --n 3 --format csv":
        "2fa7e9f5e946e7d0cab3d4b6d582bcab92e35a31687ef16605a890848525c33f",
    "genfun asm-reversed --n 3 --format pretty":
        "8129d563c148d67577dcc9fab0fea3a34c4b51afcf114fbdf41f2c4db1ca1cc2",
    "genfun nilp --n 3 --i 0 --j 1 --format json":
        "837340efce659992c4911eb3ee3aa800a418138efd40fad1cb89709e7878847a",
    "genfun nilp --n 3 --i 0 --j 1 --format csv":
        "a0fbb736330bb854e46e7a135424776f8abcd6222454ff388656eb5e39200cac",
    "genfun nilp --n 3 --i 0 --j 1 --format pretty":
        "550da8313fafa286233aa90a01cbd8d65586c14f1eafe51e9600983b84e84ca9",
    "genfun nilp --n 3 --i 1 --j 3 --format json":
        "60eb5ee034f9c29062f65db7ae286846b7a45dd6efb43b2487bef7491bb16fd7",
    "genfun nilp --n 3 --i 1 --j 3 --format csv":
        "2fa7e9f5e946e7d0cab3d4b6d582bcab92e35a31687ef16605a890848525c33f",
    "genfun nilp --n 3 --i 1 --j 3 --format pretty":
        "a0a1cb6f707e51c9450b8ccecefbda5b1a8bc6b849a1e2a51546ca142711bab6",
    "genfun asm-tilde --n 4 --format json":
        "0018f13fade00aba3e1c683624c989e4bdf5f45d705fc61e38d4260125755e66",
    "genfun asm-tilde --n 4 --format csv":
        "27b6ac729466229bdc164deed2a1abf2bd9951201074f9aee4d85a2661d5ae9e",
    "genfun asm-tilde --n 4 --format pretty":
        "0416fb0bbd8dae32eda35450fcf235312b561a21148451c82f3d772fcb2c1ead",
    "genfun asm-reversed --n 4 --format json":
        "f2d7cd886637c75fa049ddea71e9499008545c9dad27468671c494a9f48d8b4d",
    "genfun asm-reversed --n 4 --format csv":
        "3c5de71766c0441596fb1b718e1e8d019e7007c023dbcad18c4be6daaf26fda7",
    "genfun asm-reversed --n 4 --format pretty":
        "6173f8045626a6791521229e1eca3b244ecf022dfb96310b7ec418e60f43b7e6",
    "genfun nilp --n 4 --i 0 --j 1 --format json":
        "60cd8b0249aa484bca2c64727d4118d3dec56763a7aa8583f56e1fdcf994b50d",
    "genfun nilp --n 4 --i 0 --j 1 --format csv":
        "27b6ac729466229bdc164deed2a1abf2bd9951201074f9aee4d85a2661d5ae9e",
    "genfun nilp --n 4 --i 0 --j 1 --format pretty":
        "381933336e79995f08c1d035a9c06abcf290a6527155fb856d06fe7854780f92",
    "genfun nilp --n 4 --i 1 --j 4 --format json":
        "ebcf91b10829d0686ae47a75474249ebd6b8391e9ae3c093e46c3a7c3d18f72a",
    "genfun nilp --n 4 --i 1 --j 4 --format csv":
        "3c5de71766c0441596fb1b718e1e8d019e7007c023dbcad18c4be6daaf26fda7",
    "genfun nilp --n 4 --i 1 --j 4 --format pretty":
        "a8fbffab4e4cac06a674fc2ecdeb9c3168054fe00bdeaac210b801684e5a9e7a",
    "genfun asm-tilde --n 5 --format json":
        "df0e6f2839ce27e6bc3a57c82c3f459c1ba143dcaf5cae86ac550384ea73abfd",
    "genfun asm-tilde --n 5 --format csv":
        "cde7c6fd20d1d3190dc848969b055fff8c5f4a84bda71e5e068fcf085c92dc9d",
    "genfun asm-tilde --n 5 --format pretty":
        "d68544ba5a61c600b3d1b82e48e1efc4f5e420b1cc443f30f0669863375b8144",
    "genfun asm-reversed --n 5 --format json":
        "8e777f4986d020a0333f2df4b525446024fffdf0ab5393a7628af6177796d229",
    "genfun asm-reversed --n 5 --format csv":
        "a48a745e7774d570d039d5ff0d640f21e55716ce5c34989dc37edfbd6e075ca6",
    "genfun asm-reversed --n 5 --format pretty":
        "256d7a40917793549cc34d06ed892da669472c0e1c0761f5c5ab07bed65844a8",
    "genfun nilp --n 5 --i 0 --j 1 --format json":
        "36975c570608a4c1e26f146ddd6fde813c138bc7c50ece6e9190fe3f2515f34d",
    "genfun nilp --n 5 --i 0 --j 1 --format csv":
        "cde7c6fd20d1d3190dc848969b055fff8c5f4a84bda71e5e068fcf085c92dc9d",
    "genfun nilp --n 5 --i 0 --j 1 --format pretty":
        "9984ce5741e7a764be2a494d5448e7528f06988e15e21ed899e396107680b2eb",
    "genfun nilp --n 5 --i 1 --j 5 --format json":
        "f08cf78869fa329e76b9173a5122a0b8a353387ebbe0e3a3c42f7cd1b83ea94b",
    "genfun nilp --n 5 --i 1 --j 5 --format csv":
        "a48a745e7774d570d039d5ff0d640f21e55716ce5c34989dc37edfbd6e075ca6",
    "genfun nilp --n 5 --i 1 --j 5 --format pretty":
        "92a96558c6aab77681d451b4f650f326f42b75c45203fcdca2e5022dd7283537",
    "verify doubly-refined --seed 11 --format json":
        "6484e2a5254b71cfdad35b83ae3dddb12c1528db1bf832c8d4f848f3d7db86fb",
    "verify doubly-refined --seed 11 --format csv":
        "95b20f296906298d56cfa97a0838193740e75268c6214d75ccbb7b4ffb4d4883",
    "verify doubly-refined --seed 11 --format pretty":
        "8281f38e70a993c3ad053e70679fa799fb59df4078bbac7222a15ee64a133001",
    "verify dyck --seed 11 --format json":
        "4d2e23c7fedfa5e6c8b8c6cd6f10bf593c22f55cf40c9124cdb53cb2557231f2",
    "verify dyck --seed 11 --format csv":
        "adb9b4cfe274adacbea8297c27c0f72c88bc894dbab733dafdcc5b8d15eabd1b",
    "verify dyck --seed 11 --format pretty":
        "e81e4f7ba3cff5ef9c3987844ac4a48d806541fbb6f966d95cd98c6e0aef45e9",
    "verify wheel --seed 11 --format json":
        "35a8c449f08a5001da4dd518326b1814984c2f7b569099c96268c49c17a0e458",
    "verify wheel --seed 11 --format csv":
        "cdd07c57f050a1284ba13eff012034af305458c415a91e51696a3aaa5e3c93b3",
    "verify wheel --seed 11 --format pretty":
        "f364b959d574ac103fd80f4186b049debe5fee1226c0676d253b6231c9962506",
    "verify recursion --seed 11 --format json":
        "9d29a15ad6f5021776ed4641853dfe7288f589d1c28ecc1ff9c63daee2697910",
    "verify recursion --seed 11 --format csv":
        "212b7b6d142afb4839675a97f7b1b78540d798caf61bc37cb793e556041fbaa1",
    "verify recursion --seed 11 --format pretty":
        "9bd62761293837e909fb7f886c3c7f15f0c019eb4de02b0181100c71c68750ca",
    "verify zeilid --seed 11 --format json":
        "1143f284eb3ef62a00d230bab4ecd4eef65832d158dc72d9197e3bec0fd7a22b",
    "verify zeilid --seed 11 --format csv":
        "b6a97e4c169f4cfff15d994810ee4d8f70991667f4087055299d2f9190bfad4c",
    "verify zeilid --seed 11 --format pretty":
        "f5df19583a015aa82e3701e6272bac69cd9f3d74a1b6e432452a2a03212d0dab",
    "verify a-independence --seed 11 --format json":
        "91ad5dd8df8ef23db443dffcd3324154c1fd628fb91e5abb796b4cc4733d1314",
    "verify a-independence --seed 11 --format csv":
        "5a1410bbb8cf2c4b9ab4278cf7a9016ac171a09e21639d89a6aa49962fe77f0b",
    "verify a-independence --seed 11 --format pretty":
        "24c0bd7e877046a05f68ad2fcedf20db8a416aa55af8ffc36eddff48656533a8",
    "verify appendix-d --seed 11 --format json":
        "b3f1875c115e7d1533fef598aa551c7adf56a8e4631afe19f62ad17d4eb3878a",
    "verify appendix-d --seed 11 --format csv":
        "c0d8eba228817a6776fa3813b060cb0bf4dfd95116397e59d4bced51fd661c42",
    "verify appendix-d --seed 11 --format pretty":
        "a1eb4b0d35adf82360f6895882c16bb4d0021e8514558bf575935805292bdd90",
    "verify even-partitions --seed 11 --format json":
        "5fe68cbb22d38c6939c5cbf75b1f328eba791d8ddf911fe36b71ab92bf12a6ba",
    "verify even-partitions --seed 11 --format csv":
        "9612686fe2443716cd957ecc386f325d66c1ceedd5c0c6848e5bfbe21ae9c48d",
    "verify even-partitions --seed 11 --format pretty":
        "be74ed763db72335c12f43fef5b9d2dcf8de6d5db1c692a348bf3a32010dd71a",
    "verify bijections --seed 11 --format json":
        "c4f15664c704681c168c5de008e6e57f7f98fbed81b544680e3ecb5036aca9b5",
    "verify bijections --seed 11 --format csv":
        "7441c567e82220b93c0d5756d8fe677e2b836bd88e7ddb1833f433afec11a834",
    "verify bijections --seed 11 --format pretty":
        "899588fe02ebe47f75babedc1843065ed055cb13185d6b7e2c26f27cd94063a6",
    "verify involutions --seed 11 --format json":
        "08a3ce2667b9dc69594fdcdc59a316bf734c3575ac554f60b227e35274c9134d",
    "verify involutions --seed 11 --format csv":
        "3b0c812cc8ca32fef58d795f1ce7b19e064a92c794eafe6f9af66e3dcd9ff74c",
    "verify involutions --seed 11 --format pretty":
        "9df3fd5359bdefa9966ceb9008fe655b39727a5a41d56fdc4e79c7bb87df31dd",
    "verify mrr --seed 11 --format json":
        "c6667c3aa23fb37c1981d1ae9a40058a3817ff8621c7c0c7942deb770aebfd93",
    "verify mrr --seed 11 --format csv":
        "994061979559884b285f0ffcac4c01c0adbf926be106dfc5ac9524265654f97d",
    "verify mrr --seed 11 --format pretty":
        "b968be9789925346fdfd62d42f01f5589404e1f294a96ae1cf6222482677140b",
    "verify zprime --seed 11 --format json":
        "b10574f499a6a55f46616b1ec13ef305d6b66b89567222fedf33ce9c83ba7850",
    "verify zprime --seed 11 --format csv":
        "ea03f885f0c2903e0bcba3dddfff474c1c4e2ee34c0c8ae88adafe81b37b30bc",
    "verify zprime --seed 11 --format pretty":
        "fce333a3ed21a3278f6b50632666a9c6d12093bcec1922e98866f24b90c12d12",
    "verify six-vertex --seed 11 --format json":
        "8106883b701024b06d8f0c1617be78446b02d5c75a9ae82beb1f66b4cfc1e294",
    "verify six-vertex --seed 11 --format csv":
        "bb765968c95dc19c5a456bfc8164195d7e7252c362edd26acb3baa7d77a9448f",
    "verify six-vertex --seed 11 --format pretty":
        "f51897ea09e71029fcabb2cefb285955eb30c87d2a3bab15410398cf43dccd22",
    "genfun lgv --n 7 --format json":
        "6d6ad2799fe238d8e3a02576b7c2698a451d548bbb839e603d523e4fc9b0fbd6",
    "genfun lgv --n 7 --format csv":
        "a757359af3e7316cfcaf1380dc77cce77f72730c5a9356448363bc294b99d47a",
    "genfun lgv --n 7 --format pretty":
        "d63d6f564e9999bf4d7a5ab13b8abb9bc8f2566608ecd8f5bcf2d3e27eaa59eb",
    "genfun lgv --n 7 --weights t,s,1,1,1,1,1 --format json":
        "8237a14b9f8843114ceddca921cce94f2071e11746f1e04f8667f2061227ed5b",
    "genfun lgv --n 7 --weights t,s,1,1,1,1,1 --format csv":
        "4702b2a2a53d995069c3fcfb7207f3eb28471797cc66094c5cbebf28d1834b85",
    "genfun lgv --n 7 --weights t,s,1,1,1,1,1 --format pretty":
        "b9581d8e52b389abc84509a6a906df47ee937f6ef027d265bbefbcbacf3abb03",
    "genfun lgv --n 7 --weights 1,2,3,1,2,3,1 --format json":
        "8d212687488a0a812f497966b4f6f4832358780c16ae5d88adea4f36ead0fb95",
    "genfun lgv --n 7 --weights 1,2,3,1,2,3,1 --format csv":
        "7a495123c240d5db32c8512c855d31208ca514b11e59a762e8bb33a57344a4f4",
    "genfun lgv --n 7 --weights 1,2,3,1,2,3,1 --format pretty":
        "2630114d768dbd029e9630ad298f4f31dda67d1caf3660cbcc9d8f369741cee2",
    "genfun integral-I --n 6 --a=-8/5,1,3/2,3/7,2/9 --format json":
        "a484e0223ddfb9c95c8427999b692b011993529562075c6417c9273c7a86dcb1",
    "genfun integral-I --n 6 --a=-8/5,1,3/2,3/7,2/9 --format csv":
        "a168d9f32a5c713d262a92cf6b3b5c7e39f2b86f191296bd3a1fd8051713c8d7",
    "genfun integral-I --n 6 --a=-8/5,1,3/2,3/7,2/9 --format pretty":
        "33dfe94bd1dc1c2ae52ed8f24ca8e6e4bafa46801338292154650c4e1e40ea0a",
    "genfun integral-I --n 5 --a=-5/3,-5/4,4/5,-7/3 --format json":
        "36a4ebf7d1fc6f8c6dc9583ae49acd79dd41e8c17e067d48c45718b90792b2e5",
    "genfun integral-I --n 5 --a=-5/3,-5/4,4/5,-7/3 --format csv":
        "cde7c6fd20d1d3190dc848969b055fff8c5f4a84bda71e5e068fcf085c92dc9d",
    "genfun integral-I --n 5 --a=-5/3,-5/4,4/5,-7/3 --format pretty":
        "19d190ecdeab1af984aecd0c82de92620a577f637ed21a69ed4b992835f72478",
    "genfun integral-I --n 6 --a=-5/3,-5/4,4/5,-7/3,2/9 --format json":
        "a484e0223ddfb9c95c8427999b692b011993529562075c6417c9273c7a86dcb1",
    "genfun integral-I --n 6 --a=-5/3,-5/4,4/5,-7/3,2/9 --format csv":
        "a168d9f32a5c713d262a92cf6b3b5c7e39f2b86f191296bd3a1fd8051713c8d7",
    "genfun integral-I --n 6 --a=-5/3,-5/4,4/5,-7/3,2/9 --format pretty":
        "33dfe94bd1dc1c2ae52ed8f24ca8e6e4bafa46801338292154650c4e1e40ea0a",
    "genfun asm-tilde --n 6 --format json":
        "9dfd252d9736b472dc80b46ed8118e6b3a1730855ce64293ec8c80e5612be96d",
    "genfun asm-tilde --n 6 --format csv":
        "a168d9f32a5c713d262a92cf6b3b5c7e39f2b86f191296bd3a1fd8051713c8d7",
    "genfun asm-tilde --n 6 --format pretty":
        "64f25738530bb7cd997dad83365e37ce7a6a3567b6edb3f19792ad2ea15edc32",
    "genfun asm-reversed --n 6 --format json":
        "6dac8295cc93f556cbdfd511e976e5b4cecc5dc6ddb889ca71b408cfaf11d5ed",
    "genfun asm-reversed --n 6 --format csv":
        "8510144488eecd077d3b407a11bbc467f50d3a648225d74adc7e94b972c6344e",
    "genfun asm-reversed --n 6 --format pretty":
        "7b8878224a50c89da0b24e81e3230cae7e388861d84ffd552822d48d94d2e568",
    "genfun nilp --n 6 --i 0 --j 1 --format json":
        "73fe789a5a329c8e50f63b98938f85a0cc1923a726f9f3a1bae3f8bbb622a368",
    "genfun nilp --n 6 --i 0 --j 1 --format csv":
        "a168d9f32a5c713d262a92cf6b3b5c7e39f2b86f191296bd3a1fd8051713c8d7",
    "genfun nilp --n 6 --i 0 --j 1 --format pretty":
        "a5e0eaffd948ee248489e3d02b4782df0abe8e57084703982dad53db5430dd32",
    "genfun nilp --n 6 --i 1 --j 6 --format json":
        "d15fcb14450c8fcd77015b1661398f7145227ea628851d90a19f5abf3c9f8842",
    "genfun nilp --n 6 --i 1 --j 6 --format csv":
        "8510144488eecd077d3b407a11bbc467f50d3a648225d74adc7e94b972c6344e",
    "genfun nilp --n 6 --i 1 --j 6 --format pretty":
        "f5ca6e8b14f8d400bcea795193896c072a10ea8883de06f198817dbcce2e572f",
    "genfun asm-tilde --n 7 --format json":
        "ae2ad80629748a094575f0f8daf14b27226af2659df1762c40de952694256124",
    "genfun asm-tilde --n 7 --format csv":
        "ed186f982b3ed64d23d95ec0dc542c76104fc8fbf3b2b59be4d41aba24fd93cc",
    "genfun asm-tilde --n 7 --format pretty":
        "daf9803b9403a39a527246e665d24dcb3231cc5ea0be58b7bbbdc8a309c3a8b1",
    "genfun asm-reversed --n 7 --format json":
        "5f3d48b9ecfbf45f2b32e891d7266793158298bfb35647f8f6d2b00c9fc47a00",
    "genfun asm-reversed --n 7 --format csv":
        "44a29c5d446d2784d63ea1567a847ac8fb58d02dbd6f3c24a6791934176a8bd0",
    "genfun asm-reversed --n 7 --format pretty":
        "f0e0b2196807e1a6cf5ebda17dc53a957009edf78d3e77e3d2fc9c066abecda4",
    "genfun nilp --n 7 --i 0 --j 1 --format json":
        "9215068f9b851294f11438349af3c1b84cbdbdb2b468d2223fffcf913232812b",
    "genfun nilp --n 7 --i 0 --j 1 --format csv":
        "ed186f982b3ed64d23d95ec0dc542c76104fc8fbf3b2b59be4d41aba24fd93cc",
    "genfun nilp --n 7 --i 0 --j 1 --format pretty":
        "b9195dfd7819abe75a5d16fa8f3aa07bf90f959bee578da53c10c6452f9e4231",
    "genfun nilp --n 7 --i 1 --j 7 --format json":
        "4279251b8fd3fa0481c53537cfdcb2ff24ef583f32d562fba39126e8881a7a19",
    "genfun nilp --n 7 --i 1 --j 7 --format csv":
        "44a29c5d446d2784d63ea1567a847ac8fb58d02dbd6f3c24a6791934176a8bd0",
    "genfun nilp --n 7 --i 1 --j 7 --format pretty":
        "4f65b7d3e1ef252f83f2170220624a5f4ac645017da12e820015758c90fd5ed5",
    "verify doubly-refined --n 6 --format json":
        "392ed72219281d32c12084edadbf45daa44225f7346b2c75b2532d75da15558d",
    "verify doubly-refined --n 6 --format pretty":
        "93384da7e76976816d9e870a41ba1a1916b0e68ca4412e47d599fbb7ffd6bc10",
    "verify doubly-refined --n 1..6 --format json":
        "2f54d580b265e8a57e463622b06e0e6ec537341520fd244264870c776e16450b",
    "verify doubly-refined --n 1..6 --format pretty":
        "4477f340ee010a8bae035dcdc15246af984905b069b82489adfc99cc70806a14",
}
