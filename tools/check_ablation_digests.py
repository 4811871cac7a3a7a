#!/usr/bin/env python3
"""Ablation digests: the bits of every abl_*/fig* reproduction table.

Usage: check_ablation_digests.py STORE_HPP BENCH_BINARY...

Each bench binary runs with --benchmark_filter=__none__, so it prints
its reproduction tables and times nothing, at OCI_REPRO_SCALE=0.02 on
OCI_BATCH_THREADS=2, with OCI_SEED, OCI_PRECISION, OCI_MAX_SAMPLES and
OCI_SCENARIO_CACHE unset. The line naming the pool width ("sweep
threads = N") is dropped, and the SHA-256 of the rest must equal
PINNED below, captured for one kEngineRevision (read from STORE_HPP).
A digest equals

    OCI_REPRO_SCALE=0.02 OCI_BATCH_THREADS=2 ./abl_x --benchmark_filter=__none__ \\
        2>/dev/null | grep -v 'sweep threads =' | sha256sum

At the pinned revision a moved digest fails with "outputs moved without
a kEngineRevision bump", as report_digest_test does for the scenario
reports; after a bump the check fails until PINNED_REVISION and PINNED
are re-pinned from the table it prints. The benches compile with
-ffp-contract=off like the libraries, so the digests do not depend on
-march. Each binary runs in an empty temporary directory, and one that
leaves a file there fails the check: a tables-only run writes nothing.

Exit status: 0 when every digest matches, 1 otherwise.
"""

import hashlib
import os
import re
import subprocess
import sys
import tempfile

PINNED_REVISION = 11
PINNED = {
    "abl_calibration": "0c2523ef0f444234981c31eb1ff0811e8ab78ac6014c86c4cc7159e062a6220b",
    "abl_channel_density": "3bd35ad33935d2e537ca6cb01511aa7cfe8928fa662446046adcac4d4e99e17f",
    "abl_clock_sync": "4503bb23e0420f9488248001e9a413a9867c086f94d782261b30deef79ea09ef",
    "abl_coupling_baselines": "ae33aa2e91a048b824f24f82ba1743e71596dc32d1fd01a486a968a9fb4812f7",
    "abl_dead_time": "1ada791ddc8b6dd9cbaeba4fb9e174133957d6cac2354b0d9fd856bee15cdec1",
    "abl_fec": "1fbbb6a74cab6995b9b828989b2f5a877d426bd4a687f067faa7d43467e7dd56",
    "abl_link_budget": "40dc1696d78caad2c1e2ce89eb4afda69612f9001e7269805258fb8f0fad22f5",
    "abl_mppm": "26b6d7d0d85ab52d9550edd6c6fc4cc810734dab4167921cc7f019743b6df1e2",
    "abl_noc": "386aeb602f2377711635fe34ed799122bf04deb512b07a0be266e399748f0b46",
    "abl_noise": "28ffeaa9b2ac21ee9f5f332166bc965719c8a8ae2cc5261c78006c39b02e99ab",
    "abl_ppm_order": "d1e724ff85e0cf959f0e7527a5f437c6f87208dee364ba2cab064f69dc3d24e6",
    "abl_rare": "7c34e09fb29668f0a0d468afd5b58264a4519622be55ac778cf3d1e300c46a15",
    "abl_rs": "121a2c65e56ea1df88d4bb1aa965994acf126b07d2b99d066ccf319632c6fb43",
    "abl_scaling": "0827a1fe113ee8b4fd41811ed820c80f2e5535b547cd0d7dda99cea5c7c8b3cb",
    "abl_spad_array": "f177ce26c74e8f5fc8640ab237c53ea44de46cace36012c2a9b82da038336e90",
    "abl_wdm": "ab41495234476af49f1dfb84fd92d1b26bd77129f7d9ac96a194ffaf94ba085d",
    "fig1_sip_vs_optical": "893b4a47c7bcf9ffa01823d78dceaebb216b871a3d11398db70a0752879509b5",
    "fig3_tdc_nonlinearity": "7dc5c64bb103e5d7e99571d6c84ada126fca99a23b5f8b60357c6bfa00ba7d62",
    "fig4_tp_dc_tradeoff": "38500085c0e64c609126fe9363a7ad777b72e6330544f012287af98540723e58",
}

REPRO_SCALE = "0.02"
THREADS = "2"
UNSET = ("OCI_SEED", "OCI_PRECISION", "OCI_MAX_SAMPLES", "OCI_SCENARIO_CACHE")


def engine_revision(store_hpp):
    with open(store_hpp, encoding="utf-8") as fh:
        match = re.search(r"\bkEngineRevision\s*=\s*(\d+)", fh.read())
    if match is None:
        sys.exit(f"check_ablation_digests: no kEngineRevision in {store_hpp}")
    return int(match.group(1))


def table_digest(binary, env, cwd):
    """SHA-256 of the binary's tables, or None (with a message) if it failed."""
    run = subprocess.run([binary, "--benchmark_filter=__none__"], env=env, cwd=cwd,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=300)
    if run.returncode != 0:
        print(f"{binary} exited {run.returncode}:\n{run.stderr.decode(errors='replace')}")
        return None
    kept = [line for line in run.stdout.splitlines(keepends=True)
            if b"sweep threads =" not in line]
    return hashlib.sha256(b"".join(kept)).hexdigest()


def main(argv):
    if len(argv) < 3:
        sys.exit(__doc__)
    revision = engine_revision(argv[1])
    binaries = {os.path.splitext(os.path.basename(b))[0]: os.path.abspath(b)
                for b in argv[2:]}

    env = dict(os.environ, OCI_REPRO_SCALE=REPRO_SCALE, OCI_BATCH_THREADS=THREADS)
    for var in UNSET:
        env.pop(var, None)
    digests = {}
    litter = {}
    for name, binary in sorted(binaries.items()):
        with tempfile.TemporaryDirectory() as cwd:
            digests[name] = table_digest(binary, env, cwd)
            litter[name] = sorted(os.listdir(cwd))

    table = "PINNED = {\n" + "".join(
        f'    "{name}": "{digest}",\n' for name, digest in sorted(digests.items())) + "}"
    failed = False
    if set(binaries) != set(PINNED):
        print("a bench was added or removed; re-pin the table")
        failed = True
    for name, files in sorted(litter.items()):
        if files:
            print(f"{name} left {', '.join(files)} in its working directory")
            failed = True
    if revision != PINNED_REVISION:
        print(f"kEngineRevision is {revision} but the digests are pinned at "
              f"{PINNED_REVISION}; re-pin PINNED_REVISION = {revision} and the table:\n"
              f"{table}")
        return 1
    moved = [name for name, digest in sorted(digests.items()) if PINNED.get(name) != digest]
    for name in moved:
        print(f"{name}: outputs moved without a kEngineRevision bump")
    if moved or failed:
        print(f"digests at revision {revision}:\n{table}")
        return 1
    print(f"{len(digests)} ablation tables match revision {revision}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
