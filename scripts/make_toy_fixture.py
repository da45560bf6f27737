#!/usr/bin/env python3
"""Regenerate the toy end-to-end fixture under tests/fixtures/toy/.

Writes the corpus, questions, gold labels, and pipeline parameters, then
replays the full desk-scale pipeline to sanity-check the fixture:

* every answerable question keeps at least one positive among its selected
  candidates (and the unanswerable one keeps none);
* adjacent scores in every retrieval and ranking differ by more than 1e-9
  unless they are exact zero ties or duplicate texts, so independent
  reimplementations cannot flip the order;
* the packaged pipeline and the independent oracle script agree, and the
  oracle's output is frozen into expected_metrics.json.

Run from the repository root: python scripts/make_toy_fixture.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures" / "toy"

K_DOCS = 5
K_SENTS = 8
EXPR = "En+De"

DOCS = [
    ("d01", "The sky is blue on a clear day. At sunset the sky can turn orange or red. Clouds make the sky look gray."),
    ("d02", "A spider has eight legs. Spiders spin webs to catch insects. Most spiders are harmless to people."),
    ("d03", "Water boils at 100 degrees celsius at sea level. Boiling water turns into steam. Salt raises the boiling point of water slightly."),
    ("d04", "Eight planets orbit the sun. The sun sits at the center of the solar system. Jupiter is the largest planet."),
    ("d05", "Bees make honey from flower nectar. Worker bees carry nectar back to the hive. A hive can hold thousands of bees."),
    ("d06", "The blue whale is the largest animal on earth. Whales breathe air through blowholes. Blue whales eat tiny krill."),
    ("d07", "Volcanoes erupt when molten rock rises through the crust. Lava cools into new rock. Ash from volcanoes can travel far."),
    ("d08", "Penguins live in antarctica and nearby islands. Penguins cannot fly but swim very well. A penguin colony can be loud."),
    ("d09", "A rainbow appears when sunlight passes through raindrops. Each rainbow shows seven colors. Rainbows often follow storms."),
    ("d10", "The moon orbits the earth about once a month. The moon has no light of its own. Craters cover the surface of the moon."),
    ("d11", "Deserts receive very little rain. Cactus plants store water in their stems. Desert nights can be surprisingly cold."),
    ("d12", "Owls hunt at night using sharp hearing. An owl can turn its head very far. Owls swallow small prey whole."),
    ("d13", "Glaciers are rivers of ice that move slowly. Glaciers carve valleys over thousands of years. Melting glaciers raise sea levels."),
    ("d14", "Tomatoes grow best in warm weather. A ripe tomato is red and soft. Tomato plants need plenty of sun."),
    ("d15", "Lightning is a giant electric spark in the sky. Thunder is the sound lightning makes. Lightning often strikes tall objects."),
    ("d16", "Coral reefs are built by tiny animals called polyps. Reefs shelter many kinds of fish. Warm water can damage coral."),
    ("d17", "Bats are the only mammals that truly fly. Bats find insects using echoes. Most bats sleep during the day."),
    ("d18", "Maple syrup comes from the sap of maple trees. Sap is boiled until it thickens. Spring is the season for collecting sap."),
    ("d19", "Earthquakes happen when rock under the ground shifts. Small earthquakes occur every day. Buildings sway during an earthquake."),
    ("d20", "Camels store fat in their humps. A camel can go days without water. Camels carry heavy loads across deserts."),
    ("d21", "Weather changes the look of the sky every day. A clear sky means good weather for sailing. Pilots watch the sky closely."),
    ("d22", "Insects have six legs while spiders have more. Ants and bees are social insects. An insect body has three parts."),
    ("d23", "Dolphins are playful ocean animals. Dolphins use clicks and whistles to find food. The ocean is home to dolphins and whales."),
    ("d24", "Mountains form where the crust of the earth folds. Snow covers high mountains all year. Climbing a tall mountain takes weeks."),
]

# question text and the answer substrings that make a candidate correct;
# the last question has no correct answer anywhere in the corpus
QUESTIONS = [
    ("q01", "what color is the sky", ["sky is blue"]),
    ("q02", "how many legs does a spider have", ["eight legs"]),
    ("q03", "at what temperature does water boil", ["100 degrees"]),
    ("q04", "how many planets orbit the sun", ["eight planets"]),
    ("q05", "how do bees make honey", ["honey from flower nectar"]),
    ("q06", "what is the largest animal on earth", ["largest animal on earth"]),
    ("q07", "why do volcanoes erupt", ["molten rock rises"]),
    ("q08", "where do penguins live", ["penguins live in antarctica"]),
    ("q09", "what causes a rainbow", ["sunlight passes through raindrops"]),
    ("q10", "what language do dolphins speak", []),
]


def check_gaps(scored, what):
    """Adjacent scores must be far apart, exactly zero, or duplicate texts."""
    ranked = sorted(scored, key=lambda item: (-item[1], item[0]))
    for (id_a, score_a, text_a), (id_b, score_b, text_b) in zip(ranked, ranked[1:]):
        gap = score_a - score_b
        if gap > 1e-9:
            continue
        if score_a == 0.0 and score_b == 0.0:
            continue
        if text_a == text_b:
            continue
        raise SystemExit(
            f"{what}: ids {id_a!r} and {id_b!r} are {gap:.2e} apart; "
            "reword the fixture so the order is implementation-independent"
        )


def main() -> None:
    FIXTURES.mkdir(parents=True, exist_ok=True)

    corpus_path = FIXTURES / "corpus.jsonl"
    with corpus_path.open("w", encoding="utf-8") as fh:
        for doc_id, text in DOCS:
            fh.write(json.dumps({"id": doc_id, "text": text}) + "\n")

    questions_path = FIXTURES / "questions.jsonl"
    with questions_path.open("w", encoding="utf-8") as fh:
        for qid, text, _ in QUESTIONS:
            rec = {"kind": "q", "id": qid, "origin_id": qid, "text": text, "lang": "en", "prov": ["en"]}
            fh.write(json.dumps(rec) + "\n")

    (FIXTURES / "params.json").write_text(
        json.dumps({"k_docs": K_DOCS, "k_sents": K_SENTS, "expr": EXPR, "ft": "En", "dev": "En"}, indent=2)
        + "\n"
    )

    sys.path.insert(0, str(ROOT / "src"))
    from mlas2.algebra import materialize, parse_composition
    from mlas2.candidates import load_corpus, select_candidates, split_sentences
    from mlas2.dataset import load_questions
    from mlas2.experiment import ScorerSpec, build_scorer
    from mlas2.reranking import LexicalScorer
    from mlas2.scoring import rank
    from mlas2.translation import MockTranslator

    corpus = load_corpus(corpus_path)
    questions = load_questions(questions_path)

    answers = {qid: subs for qid, _, subs in QUESTIONS}
    gold_path = FIXTURES / "gold_labels.jsonl"
    selected = {}
    with gold_path.open("w", encoding="utf-8") as fh:
        for question in questions:
            cands = select_candidates(question, corpus, k_docs=K_DOCS, k_sents=K_SENTS)
            selected[question.id] = cands
            positives = 0
            for cand in cands:
                label = int(any(sub in cand.text.lower() for sub in answers[question.id]))
                positives += label
                fh.write(json.dumps({"qid": question.id, "cid": cand.id, "label": label}) + "\n")
            if answers[question.id] and positives == 0:
                raise SystemExit(f"{question.id}: no positive candidate selected; adjust the corpus")
            if not answers[question.id] and positives > 0:
                raise SystemExit(f"{question.id}: expected no positives, found {positives}")
            print(f"{question.id}: {len(cands)} candidates, {positives} positive")

    # order-stability checks on every scored list the pipeline produces
    doc_scorer = LexicalScorer(doc.text for doc in corpus.documents)
    for question in questions:
        scores = doc_scorer.score_pairs([(question.text, doc.text) for doc in corpus.documents])
        scored = [(doc.id, s, doc.text) for doc, s in zip(corpus.documents, scores)]
        check_gaps(scored, f"retrieval for {question.id}")

    sentences = [s for doc in corpus.documents for s in split_sentences(doc.text)]
    sentence_scorer = LexicalScorer(sentences)
    for question in questions:
        cands = selected[question.id]
        scores = sentence_scorer.score_pairs([(question.text, c.text) for c in cands])
        scored = [(c.id, s, c.text) for c, s in zip(cands, scores)]
        check_gaps(scored, f"selection for {question.id}")

    # run the real pipeline end to end and freeze the oracle's output
    from mlas2.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        tmpdir = Path(tmp)
        tasks = tmpdir / "tasks.jsonl"
        source = tmpdir / "source_en.jsonl"
        for argv in (
            ["candidates", "build",
             "--corpus", str(corpus_path), "--questions", str(questions_path),
             "--k-docs", str(K_DOCS), "--k-sents", str(K_SENTS), "--out", str(tasks)],
            ["candidates", "annotate",
             "--tasks", str(tasks), "--gold", str(gold_path),
             "--out", str(source), "--name", "En"],
        ):
            if cli_main(argv) != 0:
                raise SystemExit(f"mlas2 {' '.join(argv[:2])} failed")

        from mlas2.dataset import load_dataset

        source_data = load_dataset(source, "test", name="En")
        composed = materialize(parse_composition(EXPR), source_data, MockTranslator())
        rank_scorer = build_scorer(ScorerSpec("lexical"), max_seq_len=128)(composed.candidate_texts())
        for group, ranking in zip(composed.groups, rank(composed.groups, rank_scorer)):
            by_id = {c.id: c.text for c in group.candidates}
            scored = [(cid, s, by_id[cid]) for cid, s in ranking]
            check_gaps(scored, f"final ranking for {group.question.id}")

        config = {
            "run_name": "toy",
            "pretrained_label": "bert-base-multilingual-cased",
            "source": {"train": str(source), "dev": str(source), "test": str(source)},
            "ft_expr": "En",
            "dev_expr": "En",
            "test_exprs": [EXPR],
            "scorer": {"kind": "lexical"},
            "translator": {"kind": "mock"},
        }
        config_path = tmpdir / "config.json"
        config_path.write_text(json.dumps(config))

        from mlas2.experiment import ExperimentConfig, run_experiment

        record = run_experiment(ExperimentConfig.from_json(config_path))
        pipeline_report = record.reports[0].to_json_dict()

    oracle_out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "toy_expected.py")],
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()
    oracle_report = json.loads(oracle_out)

    if oracle_report != pipeline_report:
        raise SystemExit(
            f"pipeline and oracle disagree:\n  pipeline: {pipeline_report}\n  oracle:   {oracle_report}"
        )
    (FIXTURES / "expected_metrics.json").write_text(oracle_out + "\n")
    print(f"expected metrics: {oracle_out}")
    print(f"fixture written to {FIXTURES}")


if __name__ == "__main__":
    main()
