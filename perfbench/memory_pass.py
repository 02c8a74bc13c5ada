"""Peak traced memory of moluq's n^2 kernels on a workload's reference structure.

Usage: python3 memory_pass.py CONFIG_JSON OUT_JSON

Each kernel the workload's chain uses runs once under tracemalloc and
reports ``<module>.<function>.peak_mib``: the peak of traced allocations
during the call above what was live before it.  tracemalloc slows the
kernels (lj_energy at 1,000 atoms from ~0.5 s to 1.7 s), so this pass runs
in its own process and is never timed.
"""

import json
import sys
import tracemalloc


def peak_mib(fn, *args):
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    result = fn(*args)
    return result, (tracemalloc.get_traced_memory()[1] - before) / 2**20


def main() -> int:
    from moluq import cli, conformers, molio, qoi

    with open(sys.argv[1]) as fh:
        raw = json.load(fh)
    cfg = {**cli.DEFAULTS, **raw}
    peaks = {}
    tracemalloc.start()
    with open(cfg["structure"]) as fh:
        s = molio.assign_params(molio.parse_pdb(fh.read()), molio.ParamTable.default())
    s, peaks["molio.detect_bonds.peak_mib"] = peak_mib(molio.detect_bonds, s)
    if cfg["clash_factor"] is not None:
        conf = conformers.Conformer(positions=s.positions(), sample_index=0)
        _, peaks["conformers.clash_filter.peak_mib"] = peak_mib(
            conformers.clash_filter, conf, s, cfg["clash_factor"])
    a = qoi.AtomSet.from_structure(s)
    bases = {k.removeprefix("delta_") for k in raw.get("qoi", [])}
    if "area" in bases:
        _, peaks["qoi.sasa.peak_mib"] = peak_mib(qoi.sasa, a.positions, a.radii,
                                                 cfg["probe"], cfg["n_points"])
    if "volume" in bases:
        _, peaks["qoi.volume.peak_mib"] = peak_mib(qoi.volume, a.positions, a.radii,
                                                   cfg["spacing"])
    if "lj" in bases:
        _, peaks["qoi.lj_energy.peak_mib"] = peak_mib(qoi.lj_energy, a.positions, a.lj_a,
                                                      a.lj_b, a.exclusions)
    if "coulomb" in bases:
        _, peaks["qoi.coulomb_energy.peak_mib"] = peak_mib(
            qoi.coulomb_energy, a.positions, a.charges, qoi.CoulombModel(), a.exclusions)
    if "gb" in bases:
        rb, peaks["qoi.born_radii.peak_mib"] = peak_mib(qoi.born_radii, a.positions, a.radii)
        _, peaks["qoi.gb_polarization.peak_mib"] = peak_mib(
            qoi.gb_polarization, a.positions, a.charges, rb, cfg["solvent_dielectric"])
    tracemalloc.stop()
    with open(sys.argv[2], "w") as fh:
        json.dump(peaks, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
