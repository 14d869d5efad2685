"""Seeded benchmark for the kummer library and CLI; see ``run.py``."""
