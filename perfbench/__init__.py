"""Open-loop load benchmark of the consensus simulator (see run.py)."""
