"""Seeded template-grammar corpus generator for desk-scale experiments.

Sentences follow SUBJECT VERB OBJECT [PREPOSITIONAL PHRASE]; every token's
role tag is a deterministic function of its position relative to the
predicate and, for the phrase, the preposition's class.  A planted fraction
of sentences draws its verb from a pool of low-frequency exception
predicates whose object carries a role that contradicts the majority rule
(the object of an exception verb is tagged as the secondary argument
instead of the primary one).  Same seed, same bytes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .dataio import Instance, write_conll_file
from .errors import DomainError
from .numeric import make_rng

DETERMINERS = ("the", "a", "every", "some")

NOUNS = (
    "farmer", "cat", "dog", "child", "teacher", "sailor", "pilot", "baker",
    "doctor", "miner", "singer", "guard", "rabbit", "horse", "crow", "fox",
    "turtle", "painter", "smith", "clerk", "monk", "scout", "weaver", "judge",
    "tailor", "hunter", "nurse", "rider", "falcon", "otter", "badger", "llama",
    "poet", "mason", "scribe", "keeper",
)

REGULAR_VERBS = (
    "chases", "sees", "lifts", "carries", "greets", "follows", "paints",
    "feeds", "pushes", "pulls", "watches", "cleans", "teaches", "guards",
    "helps", "finds", "holds", "calls",
)

# medium-frequency exception predicates: enough occurrences to populate the
# memory, too few for the majority rule to bend
EXCEPTION_VERBS = ("quaffs", "heaves", "bequeaths", "reaps", "shuns", "forges")

# ultra-rare exception predicates: often a single training occurrence
RARE_EXCEPTION_VERBS = ("smelts", "gilds", "tithes", "moults", "burnishes", "curries")

LOC_PREPS = ("in", "on", "near")
TMP_PREPS = ("during", "after", "before")
PP_NOUNS = (
    "garden", "market", "river", "meadow", "harbor", "village",
    "morning", "evening", "winter", "festival", "harvest", "storm",
)

P_DETERMINER = 0.6
P_PP = 0.65
P_RARE_POOL = 0.15

# split-specific rng streams
_SPLIT_STREAMS = {"train": 11, "valid": 12, "test": 13}


@dataclass
class SynthStats:
    sentences: int
    tokens: int
    exception_sentences: int
    exception_tokens: int


def _noun_phrase(rng: np.random.Generator, role: str) -> tuple[list[str], list[str]]:
    words = []
    if rng.random() < P_DETERMINER:
        words.append(DETERMINERS[rng.integers(len(DETERMINERS))])
    words.append(NOUNS[rng.integers(len(NOUNS))])
    tags = [("B-" if i == 0 else "I-") + role for i in range(len(words))]
    return words, tags


def _sentence(rng: np.random.Generator, sid: str, exception: bool) -> Instance:
    tokens: list[str] = []
    tags: list[str] = []
    subj_w, subj_t = _noun_phrase(rng, "A0")
    tokens += subj_w
    tags += subj_t
    if exception:
        if rng.random() < P_RARE_POOL:
            verb = RARE_EXCEPTION_VERBS[rng.integers(len(RARE_EXCEPTION_VERBS))]
        else:
            verb = EXCEPTION_VERBS[rng.integers(len(EXCEPTION_VERBS))]
        obj_role = "A2"
    else:
        verb = REGULAR_VERBS[rng.integers(len(REGULAR_VERBS))]
        obj_role = "A1"
    predicate_index = len(tokens)
    tokens.append(verb)
    tags.append("B-V")
    obj_w, obj_t = _noun_phrase(rng, obj_role)
    tokens += obj_w
    tags += obj_t
    if rng.random() < P_PP:
        if rng.random() < 0.5:
            prep = LOC_PREPS[rng.integers(len(LOC_PREPS))]
            role = "AM-LOC"
        else:
            prep = TMP_PREPS[rng.integers(len(TMP_PREPS))]
            role = "AM-TMP"
        pp = [prep, DETERMINERS[rng.integers(len(DETERMINERS))],
              PP_NOUNS[rng.integers(len(PP_NOUNS))]]
        tokens += pp
        tags += [("B-" if i == 0 else "I-") + role for i in range(len(pp))]
    bits = [1 if i == predicate_index else 0 for i in range(len(tokens))]
    return Instance(
        sentence_id=sid,
        tokens=tuple(tokens),
        predicate_index=predicate_index,
        predicate_bits=tuple(bits),
        gold_labels=tuple(tags),
    )


def generate_split(
    split: str, size: int, exception_rate: float, seed: int
) -> tuple[list[Instance], SynthStats]:
    """Generate one split; exactly round(rate * size) exception sentences are planted."""
    if size <= 0:
        raise DomainError(f"generate_split: size must be positive, got {size}")
    if not (0.0 <= exception_rate <= 1.0):
        raise DomainError(f"generate_split: exception_rate must be in [0, 1]")
    rng = make_rng(seed, _SPLIT_STREAMS.get(split, 19))
    n_exc = int(round(exception_rate * size))
    exc_idx = set(rng.choice(size, size=n_exc, replace=False).tolist()) if n_exc else set()
    instances: list[Instance] = []
    exc_tokens = 0
    total_tokens = 0
    for i in range(size):
        inst = _sentence(rng, f"{split}-{i:05d}", i in exc_idx)
        instances.append(inst)
        total_tokens += len(inst)
        exc_tokens += sum(1 for t in inst.gold_labels if t.endswith("A2"))
    stats = SynthStats(
        sentences=size,
        tokens=total_tokens,
        exception_sentences=n_exc,
        exception_tokens=exc_tokens,
    )
    return instances, stats


def gen_synthetic(
    out_dir: str,
    train_size: int,
    valid_size: int,
    test_size: int,
    exception_rate: float,
    seed: int,
) -> dict[str, SynthStats]:
    """Write train/valid/test column files plus a stats table into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    sizes = {"train": train_size, "valid": valid_size, "test": test_size}
    stats: dict[str, SynthStats] = {}
    for split, size in sizes.items():
        instances, st = generate_split(split, size, exception_rate, seed)
        write_conll_file(os.path.join(out_dir, f"{split}.conll"), instances)
        stats[split] = st
    with open(os.path.join(out_dir, "stats.tsv"), "w", encoding="utf-8") as fh:
        fh.write("split\tsentences\ttokens\texception_sentences\texception_tokens\n")
        for split in ("train", "valid", "test"):
            st = stats[split]
            fh.write(
                f"{split}\t{st.sentences}\t{st.tokens}\t"
                f"{st.exception_sentences}\t{st.exception_tokens}\n"
            )
    return stats
