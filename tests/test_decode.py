"""Search correctness against exhaustive-enumeration oracles."""

import math

import numpy as np
import pytest

from oracles import (
    TableModel,
    TableRows,
    chained_logprobs,
    enumeration_beam,
    exhaustive_best,
    random_table_model,
    rescore_prefix,
)
from wugbench.corpus import EOS
from wugbench.decode import (
    CHUNK,
    ForcedScore,
    beam_search,
    default_max_len,
    force_score,
    greedy_decode,
    sample_decode,
)
from wugbench.ndiff import INIT_STREAM, Adam, backward, seeded_rng
from wugbench.ndiff.tensor import ContractError
from wugbench.seq2seq import (
    ARCHITECTURES,
    LSTMSeq2Seq,
    ModelConfig,
    TransformerSeq2Seq,
    build_model,
)

SRC = [3, 4]


# ---------------------------------------------------------------------------
# greedy


def test_greedy_follows_argmax():
    # 0=pad 1=start 2=end; distribution depends on what was generated so far
    model = TableModel(
        {
            (): np.array([0.0, 0.0, 0.1, 0.7, 0.2]),
            (3,): np.array([0.0, 0.0, 0.1, 0.3, 0.6]),
            (3, 4): np.array([0.0, 0.0, 0.9, 0.05, 0.05]),
        },
        vocab_size=5,
    )
    hyp = greedy_decode(model, [SRC])[0]
    assert hyp.symbols == (3, 4)
    assert hyp.finished
    assert hyp.logprob == pytest.approx(math.log(0.7) + math.log(0.6) + math.log(0.9))


def test_greedy_hits_length_cap():
    model = TableModel({}, vocab_size=4)  # uniform forever
    hyp = greedy_decode(model, [SRC], max_len=3)[0]
    assert not hyp.finished
    assert len(hyp.symbols) == 3
    # uniform argmax tie breaks to the lowest id, which is pad here
    assert hyp.symbols == (0, 0, 0)


def test_greedy_rejects_bad_max_len():
    with pytest.raises(ContractError):
        greedy_decode(TableModel({}, 4), [SRC], max_len=0)
    with pytest.raises(ContractError):
        sample_decode(TableModel({}, 4), [SRC], 2, np.random.default_rng(0), max_len=0)
    with pytest.raises(ContractError):
        sample_decode(TableModel({}, 4), [SRC], 0, np.random.default_rng(0))


def test_default_max_len_tracks_source():
    assert default_max_len([1] * 7) == 17


# ---------------------------------------------------------------------------
# beam search vs oracles


def assert_beam_is(beam, want):
    """``beam`` holds the (symbols, logprob, finished) triples ``want``."""
    assert [(h.symbols, h.finished) for h in beam.hyps] == [(w[0], w[2]) for w in want]
    for hyp, (_, logprob, _) in zip(beam.hyps, want):
        assert hyp.logprob == pytest.approx(logprob, abs=1e-12)


@pytest.mark.parametrize("width", [1, 2, 3, 4])
@pytest.mark.parametrize("trial", range(6))
def test_beam_matches_enumeration(width, trial):
    rng = np.random.default_rng(100 + trial)
    model = random_table_model(rng, vocab_size=5, depth=3)
    (beam,) = beam_search(model, [SRC], width, max_len=4)
    assert_beam_is(beam, enumeration_beam(model, SRC, width, max_len=4))


@pytest.mark.parametrize("trial", range(6))
def test_beam_width_one_is_greedy(trial):
    rng = np.random.default_rng(200 + trial)
    model = random_table_model(rng, vocab_size=5, depth=4, eos_boost=2.0)
    beam = beam_search(model, [SRC], width=1, max_len=5)[0].hyps
    greedy = greedy_decode(model, [SRC], max_len=5)[0]
    assert len(beam) == 1
    assert beam[0].symbols == greedy.symbols
    assert beam[0].finished == greedy.finished
    assert beam[0].logprob == pytest.approx(greedy.logprob, abs=1e-12)


@pytest.mark.parametrize("trial", range(4))
def test_wide_beam_finds_global_optimum(trial):
    rng = np.random.default_rng(300 + trial)
    vocab, max_len = 4, 3
    model = random_table_model(rng, vocab_size=vocab, depth=max_len)
    # width >= vocab^max_len means nothing can fall off the beam
    best = beam_search(model, [SRC], width=vocab ** max_len, max_len=max_len)[0].hyps[0]
    want_symbols, want_logprob = exhaustive_best(model, SRC, max_len)
    assert best.symbols == want_symbols
    assert best.logprob == pytest.approx(want_logprob, abs=1e-12)


def test_beam_tie_break_prefers_lower_symbols():
    # two-way exact tie: end after 3 or after 4 with identical mass
    model = TableModel(
        {
            (): np.array([0.0, 0.0, 0.0, 0.5, 0.5]),
            (3,): np.array([0.0, 0.0, 1.0, 0.0, 0.0]),
            (4,): np.array([0.0, 0.0, 1.0, 0.0, 0.0]),
        },
        vocab_size=5,
    )
    hyps = beam_search(model, [SRC], width=2, max_len=3)[0].hyps
    assert [h.symbols for h in hyps] == [(3,), (4,)]
    assert hyps[0].logprob == pytest.approx(hyps[1].logprob)


def test_beam_tie_break_across_parents():
    # (4,) outscores (3,), yet (3, 5) and (4, 5) tie exactly for the last
    # slot: log .25 + log .5 == log .5 + log .25.  The tie goes to the lower
    # symbols, which needs each source's live hypotheses kept in symbol
    # order rather than score order, also inside a batch
    model = TableModel(
        {
            (): np.array([0.0, 0.0, 0.2, 0.25, 0.5, 0.05]),
            (3,): np.array([0.0, 0.0, 0.1, 0.2, 0.2, 0.5]),
            (4,): np.array([0.0, 0.0, 0.0, 0.25, 0.5, 0.25]),
            (3, 5): np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0]),
            (4, 4): np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0]),
            (4, 5): np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0]),
        },
        vocab_size=6,
    )
    want = enumeration_beam(model, SRC, width=2, max_len=3)
    assert [w[0] for w in want] == [(4, 4), (3, 5)]
    for beam in beam_search(model, [SRC, SRC, [3]], width=2, max_len=3):
        assert [(h.symbols, h.finished) for h in beam.hyps] == [(w[0], w[2]) for w in want]


def test_beam_unfinished_fallback_is_flagged():
    model = TableModel({}, vocab_size=4)  # uniform: end id never wins argmax
    # depth-1 table that never emits the end id
    never_end = {(): np.array([0.0, 0.0, 0.0, 1.0])}
    model = TableModel(never_end, vocab_size=4)
    (beam,) = beam_search(model, [SRC], width=2, max_len=2)
    hyps = beam.hyps
    assert not beam.finished
    assert hyps and all(not h.finished for h in hyps)
    assert all(len(h.symbols) == 2 for h in hyps)


def test_beam_finished_consume_slots():
    # with width 2, one finished hypothesis leaves only one live slot
    model = TableModel(
        {
            (): np.array([0.0, 0.0, 0.6, 0.3, 0.1]),
            (3,): np.array([0.0, 0.0, 1.0, 0.0, 0.0]),
            (4,): np.array([0.0, 0.0, 1.0, 0.0, 0.0]),
        },
        vocab_size=5,
    )
    hyps = beam_search(model, [SRC], width=2, max_len=3)[0].hyps
    want = enumeration_beam(model, SRC, width=2, max_len=3)
    assert [h.symbols for h in hyps] == [w[0] for w in want]
    # the empty string (immediate end) wins; (4,) was crowded out at depth 1
    assert hyps[0].symbols == ()
    assert all(h.symbols != (4,) for h in hyps)


def test_beam_rejects_bad_arguments():
    model = TableModel({}, vocab_size=4)
    with pytest.raises(ContractError):
        beam_search(model, [SRC], width=0)
    with pytest.raises(ContractError):
        beam_search(model, [SRC], width=2, max_len=0)


def test_beam_results_sorted_by_logprob():
    rng = np.random.default_rng(77)
    model = random_table_model(rng, vocab_size=5, depth=3, eos_boost=3.0)
    hyps = beam_search(model, [SRC], width=4, max_len=4)[0].hyps
    lps = [h.logprob for h in hyps]
    assert lps == sorted(lps, reverse=True)


# ---------------------------------------------------------------------------
# a source leaves the search once its top width is decided


def count_rows(model):
    """Record the row count of every decode step ``model`` takes from now on."""
    rows, step = [], model.decode_step_batch

    def counted(state, prev_ids):
        rows.append(len(prev_ids))
        return step(state, prev_ids)

    model.decode_step_batch = counted
    return rows


class SourceTables:
    """One ``TableModel`` per source, picked by the source's first id, so
    sources in one batch follow different tables."""

    def __init__(self, tables: dict[int, TableModel]):
        self.tables = tables

    def encode(self, sources):
        return TableRows((src[0],) for src in sources)

    def decode_step_batch(self, state, prev_ids):
        rows = [self.tables[fed[0]]._row_step(fed[1:], p) for fed, p in zip(state, prev_ids)]
        return (np.stack([probs for probs, _ in rows]),
                TableRows(fed[:1] + stepped for fed, (_, stepped) in zip(state, rows)))


# the end id is likely at once; after (3,) the best live kid scores .3 * .05,
# far below the second finished hypothesis (3,) at .3 * .9, so with width 2
# the beam is decided after two steps, though (3, 3) and on are uniform
DECIDED_EARLY = {
    (): np.array([0.0, 0.0, 0.6, 0.3, 0.1]),
    (3,): np.array([0.0, 0.0, 0.9, 0.05, 0.05]),
}


def test_beam_stops_once_decided():
    model = TableModel(DECIDED_EARLY, vocab_size=5)
    want = enumeration_beam(model, SRC, width=2, max_len=12)
    rows = count_rows(model)
    (beam,) = beam_search(model, [SRC], width=2, max_len=12)
    assert_beam_is(beam, want)
    assert [h.symbols for h in beam.hyps] == [(), (3,)]
    assert rows == [1, 1]


@pytest.mark.parametrize("trial", range(6))
def test_decided_beam_matches_enumeration(trial):
    rng = np.random.default_rng(400 + trial)
    model = random_table_model(rng, vocab_size=5, depth=3, eos_boost=4.0)
    want = enumeration_beam(model, SRC, width=3, max_len=12)
    rows = count_rows(model)
    (beam,) = beam_search(model, [SRC], width=3, max_len=12)
    assert_beam_is(beam, want)
    assert len(rows) < 12


def test_beam_tie_with_last_finished_keeps_stepping():
    # after two steps (), (3,) and (4,) have finished and (3, 3) is live, all
    # at log .25.  (3, 3) finishes next at the same score and outranks (4,)
    # by symbols, so a tie must not decide the beam
    model = TableModel(
        {
            (): np.array([0.0, 0.0, 0.25, 0.5, 0.25]),
            (3,): np.array([0.0, 0.0, 0.5, 0.5, 0.0]),
            (4,): np.array([0.0, 0.0, 1.0, 0.0, 0.0]),
            (3, 3): np.array([0.0, 0.0, 1.0, 0.0, 0.0]),
        },
        vocab_size=5,
    )
    want = enumeration_beam(model, SRC, width=3, max_len=6)
    assert [w[0] for w in want] == [(), (3,), (3, 3)]
    rows = count_rows(model)
    (beam,) = beam_search(model, [SRC], width=3, max_len=6)
    assert_beam_is(beam, want)
    # the third step finishes (3, 3); its kids all score -inf, which decides it
    assert rows == [1, 2, 1]


def test_decided_source_leaves_a_batch_that_runs_on():
    # source [3] is decided after two steps; [4, 4] and [5, 5, 5] never end
    # and run to their caps of 12 and 13 steps
    model = SourceTables({3: TableModel(DECIDED_EARLY, vocab_size=5),
                          4: TableModel({}, vocab_size=5),
                          5: TableModel({(): np.array([0.0, 0.0, 0.0, 0.5, 0.5])}, 5)})
    sources = [[4, 4], [3], [5, 5, 5]]
    alone = [beam_search(model, [src], width=2)[0] for src in sources]
    rows = count_rows(model)
    beams = beam_search(model, sources, width=2)
    assert beams == alone
    assert [beam.finished for beam in beams] == [False, True, False]
    assert [len(beam.hyps[0].symbols) for beam in beams] == [12, 0, 13]
    assert rows == [3, 5] + [4] * 10 + [2]
    assert_beam_is(beams[1], enumeration_beam(model.tables[3], [3], width=2, max_len=11))


# ---------------------------------------------------------------------------
# sampling


def test_sample_decode_is_seed_deterministic():
    rng = np.random.default_rng(4)
    model = random_table_model(rng, vocab_size=5, depth=4, eos_boost=1.5)
    a = sample_decode(model, [SRC, [3]], 4, np.random.default_rng(9))
    b = sample_decode(model, [SRC, [3]], 4, np.random.default_rng(9))
    assert a == b  # symbols, logprob and finished of every draw


def test_sample_decode_matches_model_distribution():
    model = TableModel(
        {(): np.array([0.0, 0.0, 0.25, 0.75, 0.0]),
         (3,): np.array([0.0, 0.0, 1.0, 0.0, 0.0])},
        vocab_size=5,
    )
    rng = np.random.default_rng(0)
    (hyps,) = sample_decode(model, [SRC], 400, rng)
    draws = [h.symbols for h in hyps]
    frac_three = sum(d == (3,) for d in draws) / len(draws)
    assert 0.65 < frac_three < 0.85
    assert all(d in ((), (3,)) for d in draws)


def test_sampled_score_matches_rescoring():
    model = random_table_model(np.random.default_rng(12), vocab_size=5, depth=4)
    (hyps,) = sample_decode(model, [SRC], 8, np.random.default_rng(3))
    for hyp in hyps:
        want = rescore_prefix(model, SRC, hyp.symbols + ((EOS,) if hyp.finished else ()))
        assert hyp.logprob == pytest.approx(want, abs=1e-12)


def reference_draws(model: TableModel, sources, draws: int, rng) -> list[list[tuple]]:
    """(symbols, finished, logprob) of each draw, stepped one table lookup
    at a time: every live draw, in source-then-draw order, takes one
    uniform per step and maps it through its distribution's CDF."""
    out = [[None] * draws for _ in sources]
    live = [(s, d, (), 0.0) for s in range(len(sources)) for d in range(draws)]
    while live:
        still = []
        for s, d, prefix, logprob in live:
            probs = model.table.get(prefix, np.full(model.vocab_size, 1.0 / model.vocab_size))
            cdf = np.cumsum(probs) / probs.sum()
            sym = int((cdf <= rng.random()).sum())
            logprob += math.log(probs[sym])
            if sym == EOS:
                out[s][d] = (prefix, True, logprob)
            elif len(prefix) + 1 == default_max_len(sources[s]):
                out[s][d] = (prefix + (sym,), False, logprob)
            else:
                still.append((s, d, prefix + (sym,), logprob))
        live = still
    return out


def test_sampling_draw_order_is_source_then_draw():
    # the end id is rare, so some draws end by it at many different steps
    # and others run to their source's cap, 11 to 14 steps: the live draws,
    # and so the uniform each one takes, change from step to step
    model = random_table_model(np.random.default_rng(31), vocab_size=8, depth=2, eos_boost=0.5)
    sources = [[3] * (1 + i % 4) for i in range(CHUNK)]
    got = sample_decode(model, sources, 3, np.random.default_rng(32))
    want = reference_draws(model, sources, 3, np.random.default_rng(32))
    assert [[(h.symbols, h.finished) for h in row] for row in got] == [
        [(symbols, finished) for symbols, finished, _ in row] for row in want]
    for row, want_row in zip(got, want):
        for hyp, (_, _, logprob) in zip(row, want_row):
            assert hyp.logprob == pytest.approx(logprob, abs=1e-12)
    ends = [(len(h.symbols), h.finished) for row in got for h in row]
    assert len({n for n, finished in ends if finished}) >= 3
    assert len({n for n, finished in ends if not finished}) >= 3


def test_sampling_never_draws_a_zero_probability_symbol():
    # pad, start and the last id (3 of 6) get no mass after any prefix a draw
    # can reach, so an off-by-one in the inverse CDF would show
    model = random_table_model(np.random.default_rng(8), vocab_size=6, depth=3)
    for probs in model.table.values():
        probs[[0, 1, 5]] = 0.0
        probs /= probs.sum()
    samples = sample_decode(model, [SRC] * (CHUNK + 3), 40, np.random.default_rng(5), max_len=4)
    symbols = {sym for draws in samples for h in draws for sym in h.symbols}
    assert symbols == {3, 4}
    assert all(math.isfinite(h.logprob) for draws in samples for h in draws)


# ---------------------------------------------------------------------------
# forced scoring


def test_force_score_normalization():
    model = TableModel(
        {
            (): np.array([0.0, 0.0, 0.1, 0.5, 0.4]),
            (3,): np.array([0.0, 0.0, 0.2, 0.3, 0.5]),
            (3, 4): np.array([0.0, 0.0, 0.25, 0.5, 0.25]),
        },
        vocab_size=5,
    )
    score = force_score(model, [(SRC, [3, 4, EOS])])[0]
    raw = math.log(0.5) + math.log(0.5) + math.log(0.25)
    assert isinstance(score, ForcedScore)
    assert score.raw_logprob == pytest.approx(raw, abs=1e-12)
    # normalized over k characters + 1 end factor = 3 factors here
    assert score.normalized_prob == pytest.approx(math.exp(raw / 3), abs=1e-12)
    assert score.step_logprobs == pytest.approx(
        (math.log(0.5), math.log(0.5), math.log(0.25)), abs=1e-12
    )


def test_force_score_zero_probability_candidate():
    model = TableModel({(): np.array([0.0, 0.0, 0.5, 0.5, 0.0])}, vocab_size=5)
    score = force_score(model, [(SRC, [4, EOS])])[0]  # first step has probability 0
    assert score.raw_logprob == -math.inf
    assert score.normalized_prob == 0.0


def test_force_score_requires_terminated_target():
    model = TableModel({}, vocab_size=5)
    with pytest.raises(ContractError):
        force_score(model, [(SRC, [3, 4])])
    with pytest.raises(ContractError):
        force_score(model, [(SRC, [])])


def test_chained_logprobs_match_rescoring():
    model = random_table_model(np.random.default_rng(21), vocab_size=5, depth=4)
    tgt = [3, 4, 3, EOS]
    steps = chained_logprobs(model, SRC, tgt)
    assert steps.sum() == pytest.approx(rescore_prefix(model, SRC, tuple(tgt)), abs=1e-12)


def test_force_score_runs_only_the_teacher_forced_pass(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("force_score stepped the decoder")

    for cls in (LSTMSeq2Seq, TransformerSeq2Seq):
        monkeypatch.setattr(cls, "decode_step_batch", refuse)
    tiny = dict(emb_dim=4, hidden_dim=3, attn_dim=3, enc_layers=1, d_model=8,
                ffn_dim=12, heads=2, enc_blocks=1, dec_blocks=1)
    for arch in ARCHITECTURES:
        model = build_model(ModelConfig(arch=arch, vocab_size=8, **tiny),
                            seeded_rng(1, INIT_STREAM))
        score = force_score(model, [(SRC, [5, 6, EOS])])[0]
        assert len(score.step_logprobs) == 3, arch
        loss = model.loss(SRC, [5, 6, EOS], train=False).item()
        assert score.raw_logprob == pytest.approx(-loss, abs=1e-12), arch


# ---------------------------------------------------------------------------
# ragged batches: every row of a batch equals its single-source run

SMALL = dict(emb_dim=6, hidden_dim=6, attn_dim=6, enc_layers=1, d_model=8,
             ffn_dim=16, heads=2, enc_blocks=1, dec_blocks=1, dropout=0.0)
# lengths 1-7 in turn, more sources than one chunk holds
RAGGED = [[int(v) for v in np.random.default_rng(0).integers(3, 8, size=1 + i % 7)]
          for i in range(2 * CHUNK + 5)]


@pytest.fixture(scope="module", params=ARCHITECTURES)
def copy_model(request):
    """A small model trained for a few steps to copy its source.  Half
    trained, its rows finish at many different steps and some run to their
    source's length cap, so rows leave the batch at different times."""
    model = build_model(ModelConfig(arch=request.param, vocab_size=8, **SMALL),
                        seeded_rng(1, INIT_STREAM))
    optim = Adam(model.params, lr=0.05)
    rng = np.random.default_rng(3)
    for _ in range(10):
        srcs = [[int(v) for v in rng.integers(3, 8, size=rng.integers(1, 8))] for _ in range(8)]
        optim.zero_grad()
        backward(model.batch_loss([(src, src + [EOS]) for src in srcs]))
        optim.step()
    return model


def test_ragged_batch_rows_equal_single_source_runs(copy_model):
    greedy = greedy_decode(copy_model, RAGGED)
    beams = beam_search(copy_model, RAGGED, width=3)
    assert len(greedy) == len(beams) == len(RAGGED) > CHUNK
    # the steps at which rows leave the batch, by the end id or the length cap
    assert len({len(h.symbols) + h.finished for h in greedy}) >= 3
    assert any(h.finished for h in greedy)
    for src, hyp, beam in zip(RAGGED, greedy, beams):
        (alone,) = greedy_decode(copy_model, [src])
        assert (hyp.symbols, hyp.finished) == (alone.symbols, alone.finished)
        assert abs(hyp.logprob - alone.logprob) < 1e-9
        (alone,) = beam_search(copy_model, [src], width=3)
        assert beam.finished == alone.finished
        assert [(h.symbols, h.finished) for h in beam.hyps] == [
            (h.symbols, h.finished) for h in alone.hyps]
        for got, want in zip(beam.hyps, alone.hyps):
            assert abs(got.logprob - want.logprob) < 1e-9

    rng = np.random.default_rng(4)
    pairs = [(src, [int(v) for v in rng.integers(3, 8, size=rng.integers(0, 8))] + [EOS])
             for src in RAGGED]
    for pair, score in zip(pairs, force_score(copy_model, pairs)):
        (alone,) = force_score(copy_model, [pair])
        assert len(score.step_logprobs) == len(pair[1])
        assert abs(score.raw_logprob - alone.raw_logprob) < 1e-9
        np.testing.assert_allclose(score.step_logprobs, alone.step_logprobs, rtol=0, atol=1e-9)


def test_forced_pairs_of_a_source_share_its_encoder_pass(copy_model, monkeypatch):
    # German-style items: five candidates of one source, between sources of
    # one pair each, more sources than one chunk holds
    rng = np.random.default_rng(8)
    sources: list[list[int]] = []
    while len(sources) < 2 * CHUNK + 3:
        src = [int(v) for v in rng.integers(3, 8, size=rng.integers(1, 8))]
        if src not in sources:
            sources.append(src)
    pairs = [(src, [int(v) for v in rng.integers(3, 8, size=rng.integers(0, 8))] + [EOS])
             for i, src in enumerate(sources) for _ in range(5 if i % 2 == 0 else 1)]
    encoded = []
    cls = type(copy_model)
    encode = cls._encode

    def spy(self, src, live, train, rng):
        encoded.append([tuple(row[keep]) for row, keep in zip(src, live)])
        return encode(self, src, live, train, rng)

    monkeypatch.setattr(cls, "_encode", spy)
    scores = force_score(copy_model, pairs)
    monkeypatch.undo()
    # a chunk is CHUNK sources' pairs, and each source is encoded once
    assert [len(rows) for rows in encoded] == [CHUNK, CHUNK, 3]
    assert [list(row) for rows in encoded for row in rows] == sources
    for pair, score in zip(pairs, scores):
        (alone,) = force_score(copy_model, [pair])
        assert abs(score.raw_logprob - alone.raw_logprob) < 1e-9
        np.testing.assert_allclose(score.step_logprobs, alone.step_logprobs, rtol=0, atol=1e-9)


def test_width_one_beam_is_greedy_inside_a_batch(copy_model):
    beams = beam_search(copy_model, RAGGED, width=1)
    assert all(len(beam.hyps) == 1 for beam in beams)
    # bit-exact, not approximate
    assert [beam.hyps[0] for beam in beams] == greedy_decode(copy_model, RAGGED)


def test_sampled_scores_equal_forced_scores_in_a_ragged_batch(copy_model):
    samples = sample_decode(copy_model, RAGGED, 3, np.random.default_rng(6))
    assert [len(draws) for draws in samples] == [3] * len(RAGGED)
    hyps = [(src, h) for src, draws in zip(RAGGED, samples) for h in draws]
    # some rows end by the end id, some run to their source's length cap
    assert {h.finished for _, h in hyps} == {True, False}
    forced = force_score(copy_model, [(src, list(h.symbols) + [EOS]) for src, h in hyps])
    for (src, hyp), score in zip(hyps, forced):
        if not hyp.finished:
            assert len(hyp.symbols) == default_max_len(src)
        # an unfinished draw never took the end id's factor
        want = sum(score.step_logprobs[:len(hyp.symbols) + hyp.finished])
        assert abs(hyp.logprob - want) < 1e-9
