"""The end-to-end benchmark: TDAccess -> Storm -> TDStore -> front end.

See ``README.md`` in this directory; ``run.py`` is the entry point.
"""
