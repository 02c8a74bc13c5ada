"""The benchmark's workloads: input sizes, run config and CLI stage chain.

Each stage is one ``moluq <command>`` invocation reading the shared run
config; ``flags`` are extra CLI flags for that stage only.  Why each
workload exists is recorded in README.md next to this file.

The run config's sampler ``seed`` is fixed per workload, and the benchmark's
``--seed`` drives the generated files (lattice jitter, ligand, poses, bound
boxes).  On ``energy`` a seed-dependent sampler stream made the accepted
count, and with it the work of ``qoi``, range from 5 to 11 of 16 draws over
seeds 1-10; with the stream fixed it is 4 of 8 on each of seeds 101-112.
"""

# outputs on this seed are compared with reference.json
DEFAULT_SEED = 1

WORKLOADS = {
    "surface": {
        "shape": "lattice", "atoms": 300,
        "config": {"seed": 7, "mode": "cartesian", "clash_factor": None, "samples": 16,
                   "qoi": ["area", "volume", "delta_area", "delta_volume"],
                   "chain_a": "A", "chain_b": "B", "workers": 1},
        "stages": [("sample", []), ("qoi", ["--workers", "2"]), ("certify", []),
                   ("saturate", [])],
    },
    "energy": {
        "shape": "lattice", "atoms": 1000,
        "config": {"seed": 7, "mode": "cartesian", "clash_factor": 0.5, "samples": 8,
                   "qoi": ["lj", "coulomb", "gb", "delta_lj", "delta_coulomb", "delta_gb"],
                   "chain_a": "A", "chain_b": "B", "workers": 1},
        "stages": [("sample", []), ("qoi", []), ("certify", [])],
    },
    "torsion": {
        "shape": "chain", "atoms": 120,
        "config": {"seed": 23, "mode": "torsion", "clash_factor": 0.6, "samples": 128,
                   "qoi": ["volume", "lj", "coulomb"], "workers": 1},
        "stages": [("sample", []), ("qoi", []), ("certify", []), ("saturate", []),
                   ("modes", [])],
    },
    "maps": {
        "shape": "lattice", "atoms": 1000,
        "ligand_atoms": 12, "ligand_models": 8, "poses": 64,
        "config": {"seed": 11, "mode": "cartesian", "clash_factor": None, "samples": 32,
                   "workers": 1},
        "stages": [("sample", []), ("volmap", []), ("modes", []), ("bindsite", []),
                   ("bound", [])],
    },
}
