"""Person-of-interest face and voice verification on feature streams.

The package learns per-modality embeddings with a contrastive objective,
scores test videos against a person's pristine reference set, and
calibrates the scores so a false-alarm target translates directly into a
decision threshold.  A synthetic world generator and a small CLI make the
whole pipeline reproducible end to end.
"""

__version__ = "0.1.0"
