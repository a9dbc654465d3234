"""Shared test helpers: the paper's example histories and small utilities."""

from __future__ import annotations

import os
from typing import Dict, Tuple

from repro.core.model import History, Transaction, read, write
from repro.histories.formats import save_history
from repro.histories.generator import RandomHistoryConfig, generate_random_history

#: Bytes of file prefix a checkpoint's source fingerprint hashes.
FINGERPRINT_PREFIX = 1 << 16


def fig_1a() -> History:
    """Fig. 1a: the RC-inconsistent motivating history."""
    t1 = Transaction([write("x", 1), write("y", 1)], label="t1")
    t2 = Transaction([write("x", 2)], label="t2")
    t3 = Transaction([write("x", 3)], label="t3")
    t4 = Transaction([write("z", 1), write("y", 2)], label="t4")
    t5 = Transaction([read("x", 1), read("x", 2), read("x", 3)], label="t5")
    t6 = Transaction([read("z", 1), read("y", 1)], label="t6")
    return History.from_sessions([[t1], [t2], [t3, t4], [t5, t6]])


def fig_1b() -> History:
    """Fig. 1b: the CC-inconsistent motivating history."""
    t1 = Transaction([write("x", 1)], label="t1")
    t2 = Transaction([write("x", 2)], label="t2")
    t3 = Transaction([write("y", 1), read("z", 2)], label="t3")
    t4 = Transaction([write("x", 3)], label="t4")
    t5 = Transaction([write("z", 1)], label="t5")
    t6 = Transaction([write("x", 4), read("z", 1), write("z", 2)], label="t6")
    t7 = Transaction([read("x", 3), read("y", 1)], label="t7")
    return History.from_sessions([[t1, t2, t3], [t4, t5], [t6], [t7]])


def fig_4a() -> History:
    """Fig. 4a: Read Consistent but RC-inconsistent."""
    t1 = Transaction([write("x", 1)], label="t1")
    t2 = Transaction([write("x", 2)], label="t2")
    t3 = Transaction([read("x", 2), read("x", 1)], label="t3")
    return History.from_sessions([[t1, t2], [t3]])


def fig_4b() -> History:
    """Fig. 4b: RC-consistent but RA-inconsistent."""
    t1 = Transaction([write("x", 1)], label="t1")
    t2 = Transaction([write("x", 2), write("y", 2)], label="t2")
    t3 = Transaction([read("x", 1), read("y", 2)], label="t3")
    return History.from_sessions([[t1, t2], [t3]])


def fig_4c() -> History:
    """Fig. 4c: RA-consistent but CC-inconsistent."""
    t1 = Transaction([write("x", 1)], label="t1")
    t2 = Transaction([write("x", 2)], label="t2")
    t3 = Transaction([read("x", 2), write("y", 3)], label="t3")
    t4 = Transaction([read("y", 3), read("x", 1)], label="t4")
    return History.from_sessions([[t1, t2], [t3], [t4]])


def fig_4d() -> History:
    """Fig. 4d: CC-consistent (but not serializable)."""
    t1 = Transaction([write("x", 1)], label="t1")
    t2 = Transaction([read("x", 1), write("x", 2)], label="t2")
    t3 = Transaction([read("x", 2)], label="t3")
    t4 = Transaction([read("x", 1), write("x", 3)], label="t4")
    t5 = Transaction([read("x", 3)], label="t5")
    return History.from_sessions([[t1], [t2, t3], [t4, t5]])


def all_paper_histories() -> Dict[str, History]:
    """All named example histories keyed by figure name."""
    return {
        "fig_1a": fig_1a(),
        "fig_1b": fig_1b(),
        "fig_4a": fig_4a(),
        "fig_4b": fig_4b(),
        "fig_4c": fig_4c(),
        "fig_4d": fig_4d(),
    }


#: Expected consistency verdicts (RC, RA, CC) for each paper history.
PAPER_VERDICTS = {
    "fig_1a": (False, False, False),
    "fig_1b": (True, True, False),
    "fig_4a": (False, False, False),
    "fig_4b": (True, False, False),
    "fig_4c": (True, True, False),
    "fig_4d": (True, True, True),
}



def long_plume_and_cut_copy(directory: str) -> Tuple[str, str, int, int]:
    """A plume history past 64 KiB, and a copy cut at a line past 64 KiB.

    Both files share the prefix a checkpoint's source fingerprint hashes,
    so a checkpoint of the long file matches the cut copy.  Returns the two
    paths and the number of transactions each holds.
    """
    history = generate_random_history(
        RandomHistoryConfig(num_sessions=4, num_transactions=1500, seed=5)
    )
    long_path = os.path.join(directory, "long.plume")
    save_history(history, long_path, fmt="plume")
    with open(long_path, encoding="utf-8") as handle:
        lines = handle.readlines()
    kept = []
    size = 0
    for line in lines:
        kept.append(line)
        size += len(line.encode("utf-8"))
        if size > FINGERPRINT_PREFIX:
            break
    assert size < os.path.getsize(long_path)
    cut_path = os.path.join(directory, "cut.plume")
    with open(cut_path, "w", encoding="utf-8") as handle:
        handle.writelines(kept)
    cut_txns = sum(1 for line in kept if line.startswith("session="))
    return long_path, cut_path, history.num_transactions, cut_txns
