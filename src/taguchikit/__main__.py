if __name__ == "__main__":
    # A command is one short process: see run(). Switching the collector off
    # before the package imports covers them too; a plain import changes nothing.
    import gc

    gc.disable()
    from taguchikit.cli import run

    run()
