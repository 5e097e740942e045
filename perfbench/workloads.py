"""Seeded inputs, request schedules and answer checks for every workload.

The KGs are generated with a fixed generator seed (:data:`KG_SEED`), like
every other benchmark of this repository; ``--seed`` drives the request
streams: query constants (Zipf-skewed over shuffled entity pools) and
update batches.  The program under test only ever sees the generated
inputs.

Expected answers are computed with plain Python over the generated triples
(:class:`KGIndex`), never by asking the engine; SPARQL-ML answers are
checked against the trained model's own prediction map.
"""

from __future__ import annotations

import bisect
import math
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

WORKLOADS = ("sparqlml_mixed", "train_gml", "update_durable")

#: KG scale: DBLP scale 2 is 15k triples and ~2,700 typed entities, more
#: than 10x the endpoint's 256-entry result cache.
SCALE = 2.0
#: Generator seed of the DBLP and YAGO KGs.  Fixed, so runs with different
#: ``--seed`` differ only in what they ask, and train the same models.
KG_SEED = 7
#: Skew of the query constants.  An unverified assumption, close to YCSB's
#: default Zipf constant 0.99 (README, "Traffic assumptions").
ZIPF_EXPONENT = 1.0

DBLP = "https://www.dblp.org/"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
XSD = "http://www.w3.org/2001/XMLSchema#"
PLAIN_DATATYPES = (XSD + "string",
                   "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString")

PREFIXES = ("prefix dblp: <https://www.dblp.org/>\n"
            "prefix kgnet: <https://www.kgnet.com/>\n"
            "prefix yago: <http://yago-knowledge.org/resource/>\n")

_TRAIN = PREFIXES + """Insert into <kgnet> { ?s ?p ?o }
where {select * from kgnet.TrainGML(
  {Name: '%s',
   GML-Task:{ %s },
   Task Budget:{ MaxMemory:8GB, MaxTime:10min, Priority:ModelScore} } )};
"""

#: The TrainGML requests of paper Fig 8, one per task the benchmark trains.
TRAIN_DBLP_NC = _TRAIN % (
    "DBLP_Paper-Venue_Classifier",
    "TaskType: kgnet:NodeClassifier, TargetNode: dblp:Publication, "
    "NodeLable: dblp:publishedIn")
TRAIN_DBLP_LP = _TRAIN % (
    "DBLP_Author-Affiliation_Predictor",
    "TaskType: kgnet:LinkPredictor, SourceNode: dblp:Person, "
    "DestinationNode: dblp:Affiliation, TargetEdge: dblp:affiliation")
TRAIN_YAGO_NC = _TRAIN % (
    "YAGO_Place-Country_Classifier",
    "TaskType: kgnet:NodeClassifier, TargetNode: yago:Place, "
    "NodeLable: yago:locatedInCountry")
TRAIN_CYCLE = (("DBLP_Paper-Venue_Classifier", "accuracy", TRAIN_DBLP_NC),
               ("DBLP_Author-Affiliation_Predictor", "hits@10", TRAIN_DBLP_LP),
               ("YAGO_Place-Country_Classifier", "accuracy", TRAIN_YAGO_NC))

GROUP_BY_VENUE = (PREFIXES + "SELECT ?venue (COUNT(?paper) AS ?n) "
                  "WHERE { ?paper dblp:publishedIn ?venue } GROUP BY ?venue")


def fig2_query(author: Optional[str] = None) -> str:
    """The paper's Fig 2 SPARQL-ML SELECT, optionally for one author's papers."""
    restrict = f"?paper dblp:authoredBy <{author}>.\n" if author else ""
    return (PREFIXES + "select ?paper ?title ?venue\nwhere {\n"
            "?paper a dblp:Publication.\n" + restrict +
            "?paper dblp:title ?title.\n"
            "?paper ?NodeClassifier ?venue.\n"
            "?NodeClassifier a kgnet:NodeClassifier.\n"
            "?NodeClassifier kgnet:TargetNode dblp:Publication.\n"
            "?NodeClassifier kgnet:NodeLabel dblp:publishedIn.}\n")


def point_query(subject: str) -> str:
    return f"SELECT ?p ?o WHERE {{ <{subject}> ?p ?o }}"


def join_query(author: str) -> str:
    return (PREFIXES + "SELECT ?paper ?title ?venue WHERE { "
            f"?paper dblp:authoredBy <{author}> . ?paper dblp:title ?title . "
            "?paper dblp:publishedIn ?venue }")


# ----------------------------------------------------------------------
# Terms as plain tuples
# ----------------------------------------------------------------------

def term_key(term) -> Tuple[str, ...]:
    """A generated ``repro`` term as the tuple its JSON binding maps to."""
    if hasattr(term, "lexical"):
        datatype = term.datatype.value if term.datatype is not None else ""
        if datatype in PLAIN_DATATYPES:
            datatype = ""
        return ("literal", term.lexical, term.language or "", datatype)
    return ("uri", term.value)


def binding_key(binding: Dict[str, str]) -> Tuple[str, ...]:
    """A SPARQL JSON results binding as a comparable tuple."""
    if binding["type"] == "literal":
        datatype = binding.get("datatype", "")
        if datatype in PLAIN_DATATYPES:
            datatype = ""
        return ("literal", binding["value"], binding.get("xml:lang", ""),
                datatype)
    return (binding["type"], binding["value"])


class KGIndex:
    """Plain-Python indexes over the generated triples."""

    def __init__(self, graph) -> None:
        self.num_triples = 0
        self.out: Dict[str, List[Tuple]] = defaultdict(list)
        self.typed: set = set()
        self.papers_by_author: Dict[str, set] = defaultdict(set)
        self.title: Dict[str, Tuple] = {}
        self.venue: Dict[str, str] = {}
        self.publications: set = set()
        self.authors: set = set()
        for s, p, o in graph:
            self.num_triples += 1
            subject, predicate = s.value, p.value
            self.out[subject].append((("uri", predicate), term_key(o)))
            if predicate == RDF_TYPE:
                self.typed.add(subject)
                if o.value == DBLP + "Publication":
                    self.publications.add(subject)
                elif o.value == DBLP + "Person":
                    self.authors.add(subject)
            elif predicate == DBLP + "authoredBy":
                self.papers_by_author[o.value].add(subject)
            elif predicate == DBLP + "title":
                self.title[subject] = term_key(o)
            elif predicate == DBLP + "publishedIn":
                self.venue[subject] = o.value
        self.venue_counts = Counter(self.venue.values())

    def triple_keys(self) -> set:
        return {(("uri", subject), predicate, obj)
                for subject, pairs in self.out.items() for predicate, obj in pairs}

    def entity_pool(self) -> List[str]:
        return sorted(self.typed)

    def author_pool(self) -> List[str]:
        return sorted(self.authors)

    # -- expected answers ------------------------------------------------
    def point_rows(self, subject: str) -> List[Tuple]:
        return sorted(self.out.get(subject, ()))

    def join_rows(self, author: str) -> List[Tuple]:
        return sorted((("uri", paper), self.title[paper], ("uri", self.venue[paper]))
                      for paper in self.papers_by_author.get(author, ())
                      if paper in self.title and paper in self.venue)

    def fig2_papers(self, author: Optional[str]) -> set:
        papers = (self.papers_by_author.get(author, set()) if author
                  else self.publications)
        return {paper for paper in papers
                if paper in self.publications and paper in self.title}


class Zipf:
    """Zipf-skewed draws over a seeded permutation of ``items``."""

    def __init__(self, items: List[str], rng: random.Random,
                 exponent: float = ZIPF_EXPONENT) -> None:
        self.items = list(items)
        rng.shuffle(self.items)
        total = 0.0
        self.cumulative = []
        for rank in range(1, len(self.items) + 1):
            total += 1.0 / rank ** exponent
            self.cumulative.append(total)
        self.rng = rng

    def draw(self) -> str:
        target = self.rng.random() * self.cumulative[-1]
        return self.items[bisect.bisect_left(self.cumulative, target)]


def weighted_cycle(weights: Dict[str, int]) -> List[str]:
    """A fixed interleaving with exactly ``weights[c]`` slots per class.

    Smooth weighted round robin: the same class mix in every run and for
    every seed, spread evenly instead of in bursts.
    """
    current = {name: 0 for name in weights}
    total = sum(weights.values())
    cycle = []
    for _ in range(total):
        for name, weight in weights.items():
            current[name] += weight
        chosen = max(current, key=lambda name: (current[name], name))
        current[chosen] -= total
        cycle.append(chosen)
    return cycle


# ----------------------------------------------------------------------
# Request schedules
# ----------------------------------------------------------------------

@dataclass
class Op:
    """One request: its class, what to send, and what identifies the answer."""

    cls: str
    text: str = ""
    key: str = ""
    batch: int = -1


#: sparqlml_mixed: slots per 100 requests.  The Fig 2 SPARQL-ML SELECTs
#: are mostly restricted to one author's papers, a few cover all papers.
#: The weights are an unverified assumption, taken from no query log
#: (README, "Traffic assumptions"); do not tune a change to them.
MIXED_WEIGHTS = {"point": 40, "join": 25, "groupby": 5, "sparqlml": 14,
                 "sparqlml_all": 2, "infer": 14}


def mixed_ops(index: KGIndex, seed: int, connection: int) -> Iterator[Op]:
    rng = random.Random(seed * 7919 + connection)
    entities = Zipf(index.entity_pool(), random.Random(seed * 31 + 1))
    authors = Zipf(index.author_pool(), random.Random(seed * 31 + 2))
    entities.rng = authors.rng = rng
    cycle = weighted_cycle(MIXED_WEIGHTS)
    position = connection * len(cycle) // 2
    while True:
        cls = cycle[position % len(cycle)]
        position += 1
        if cls == "point":
            subject = entities.draw()
            yield Op("point", point_query(subject), subject)
        elif cls == "join":
            author = authors.draw()
            yield Op("join", join_query(author), author)
        elif cls == "groupby":
            yield Op("groupby", GROUP_BY_VENUE)
        elif cls == "sparqlml":
            author = authors.draw()
            yield Op("sparqlml", fig2_query(author), author)
        elif cls == "sparqlml_all":
            yield Op("sparqlml_all", fig2_query())
        else:
            yield Op("infer", key=authors.draw())


def hot_ops(index: KGIndex, seed: int) -> Iterator[Op]:
    """update_durable's reader: a few hot SELECTs, repeated.

    Two point lookups and two author joins: short queries, so the reader
    never holds the interpreter lock long enough to queue a commit behind
    a whole-KG scan.
    """
    rng = random.Random(seed * 104729 + 5)
    papers = sorted(index.publications)
    authors = sorted(author for author in index.author_pool()
                     if index.join_rows(author))
    hot = [Op("point", point_query(paper), paper) for paper in rng.sample(papers, 2)]
    hot.extend(Op("join", join_query(author), author)
               for author in rng.sample(authors, 2))
    position = 0
    while True:
        yield hot[position % len(hot)]
        position += 1


#: Preprints per update batch; each preprint is 5 triples.
PREPRINTS_PER_BATCH = 2


class UpdateStream:
    """``INSERT DATA``/``DELETE DATA`` batches of 10 triples.

    Every second batch deletes the oldest live inserted batch, so the KG
    keeps its size however many commits a run makes (and so does the
    server's memory, apart from the append-only term dictionary).  Updates
    add preprints citing existing papers;
    they never touch the triples the hot SELECTs read, so those answers
    stay fixed while every commit still invalidates the cached results.
    Triples are kept as :func:`term_key` tuples, so the state after a
    restart can be compared with plain Python sets.
    """

    def __init__(self, index: KGIndex, seed: int) -> None:
        self.rng = random.Random(seed * 15485863 + 11)
        self.seed = seed
        self.papers = sorted(index.publications)
        self.keywords = sorted(s for s in index.typed if "/keyword/" in s)
        self.batches: List[List[Tuple]] = []
        self.live: List[int] = []
        self.counter = 0

    def _preprint(self, number: int) -> List[Tuple]:
        subject = ("uri", f"{DBLP}preprint/{self.seed}-{number}")
        return [
            (subject, ("uri", RDF_TYPE), ("uri", DBLP + "Preprint")),
            (subject, ("uri", DBLP + "title"),
             ("literal", f"Preprint {self.seed}-{number}", "", "")),
            (subject, ("uri", DBLP + "yearOfPublication"),
             ("literal", str(2024 + number % 3), "", XSD + "integer")),
            (subject, ("uri", DBLP + "cites"), ("uri", self.rng.choice(self.papers))),
            (subject, ("uri", DBLP + "hasKeyword"),
             ("uri", self.rng.choice(self.keywords))),
        ]

    def next_op(self) -> Op:
        self.counter += 1
        if self.counter % 2 == 0 and self.live:
            batch = self.live.pop(0)
            return Op("update", "DELETE DATA { %s }" % _render(self.batches[batch]),
                      "delete", batch)
        number = len(self.batches) * PREPRINTS_PER_BATCH
        triples = [triple for offset in range(PREPRINTS_PER_BATCH)
                   for triple in self._preprint(number + offset)]
        self.batches.append(triples)
        self.live.append(len(self.batches) - 1)
        return Op("update", "INSERT DATA { %s }" % _render(triples), "insert",
                  len(self.batches) - 1)


def _render(triples) -> str:
    def term(key) -> str:
        if key[0] == "uri":
            return f"<{key[1]}>"
        return f'"{key[1]}"' + (f"^^<{key[3]}>" if key[3] else "")
    return " ".join(f"{term(s)} {term(p)} {term(o)} ." for s, p, o in triples)


# ----------------------------------------------------------------------
# Answer checks
# ----------------------------------------------------------------------

def check_select(index: KGIndex, op: Op, bindings: List[Dict]) -> bool:
    if op.cls == "point":
        got = sorted((binding_key(row["p"]), binding_key(row["o"]))
                     for row in bindings)
        return got == index.point_rows(op.key)
    if op.cls == "join":
        got = sorted((binding_key(row["paper"]), binding_key(row["title"]),
                      binding_key(row["venue"])) for row in bindings)
        return got == index.join_rows(op.key)
    if op.cls == "groupby":
        got = {row["venue"]["value"]: int(row["n"]["value"]) for row in bindings}
        return got == dict(index.venue_counts)
    raise ValueError(f"not a protocol SELECT class: {op.cls}")


def check_fig2(index: KGIndex, op: Op, result: Dict,
               predictions: Dict[str, str]) -> bool:
    """A SPARQL-ML answer: the right papers, each with the model's class."""
    rows = result.get("rows") or []
    expected = index.fig2_papers(op.key or None)
    if result.get("num_results") != len(rows) or len(rows) != len(expected):
        return False
    for row in rows:
        paper = row.get("paper")
        if paper not in expected or row.get("venue") != predictions.get(paper):
            return False
        if ("literal", row.get("title"), "", "") != index.title[paper]:
            return False
    return {row["paper"] for row in rows} == expected


def check_links(expected: List[Dict], got: List[Dict]) -> bool:
    if len(expected) != len(got):
        return False
    for want, have in zip(expected, got):
        if want["entity"] != have.get("entity") or want["rank"] != have.get("rank"):
            return False
        if not math.isclose(want["score"], have.get("score", math.nan),
                            rel_tol=1e-9, abs_tol=1e-12):
            return False
    return True


def check_train(name: str, metric: str, report: Dict) -> bool:
    value = (report.get("metrics") or {}).get(metric)
    return (report.get("kind") == "TRAIN_REPORT"
            and report.get("task_name") == name
            and str(report.get("model_uri", "")).startswith("https://")
            and isinstance(value, float) and 0.0 <= value <= 1.0)
